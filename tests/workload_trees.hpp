// The tree each registered workload runs over, for the registry-wide test
// loops: fib* over the synthetic RIB rule tree, fib-real over the tree
// rebuilt from its feed (`params`' rib-feed), the rest over any tree.
#pragma once

#include <string>

#include "fib/fib_workloads.hpp"
#include "rib/workloads.hpp"
#include "sim/registry.hpp"
#include "tree/tree.hpp"

namespace treecache::testing_util {

inline const Tree& tree_for_workload(const std::string& name,
                                     const sim::Params& params,
                                     const Tree& rule_tree,
                                     const Tree& generic_tree) {
  // fib-real first: its name also matches the fib* prefix.
  if (rib::is_real_fib_workload_name(name)) {
    return rib::shared_real_fib(params).tree();
  }
  return fib::is_fib_workload_name(name) ? rule_tree : generic_tree;
}

}  // namespace treecache::testing_util
