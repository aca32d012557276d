// Quickstart: build a tree, run the TC algorithm by hand, watch the cache.
//
//   $ ./quickstart
//
// Walks through the rent-or-buy behaviour of TC on a tiny tree, printing
// the cache and counters after every request — the "hello world" of the
// library's public API.
#include <cstdio>

#include "core/tree_cache.hpp"
#include "example_args.hpp"
#include "tree/tree_builder.hpp"
#include "tree/tree_io.hpp"

using namespace treecache;

namespace {
void show(const TreeCache& tc) {
  const Tree& tree = tc.tree();
  const std::string art = to_ascii(tree, [&](NodeId v) {
    std::string note = tc.cache().contains(v) ? "[cached" : "[";
    if (tc.counter(v) > 0) {
      note += (note.size() > 1 ? ", " : "");
      note += "cnt=" + std::to_string(tc.counter(v));
    }
    note += "]";
    return note == "[]" ? std::string{} : note;
  });
  std::fputs(art.c_str(), stdout);
  std::printf("cost so far: service=%llu reorg=%llu\n\n",
              static_cast<unsigned long long>(tc.cost().service),
              static_cast<unsigned long long>(tc.cost().reorg));
}
}  // namespace

static int example_main(int, char**) {
  // The universe: a small tree of dependent items. Caching a node requires
  // caching its whole subtree (think: an IP rule and all more-specific
  // rules below it).
  //
  //        0
  //        ├─ 1
  //        │  ├─ 3
  //        │  └─ 4
  //        └─ 2
  const Tree tree = from_parent_string("-1 0 0 1 1");

  // alpha = 2: fetching or evicting one node costs 2; capacity = 4 nodes.
  TreeCache tc(tree, {.alpha = 2, .capacity = 4});

  std::puts("== fresh cache ==");
  show(tc);

  std::puts("== two positive requests at leaf 3: counter pays for a fetch ==");
  tc.step(positive(3));
  tc.step(positive(3));  // cnt(3) reaches alpha -> fetch {3}
  show(tc);

  std::puts("== requests at 4 and 1 pool their counters (saturation) ==");
  tc.step(positive(4));
  tc.step(positive(1));
  tc.step(positive(1));  // cnt{1,4} = 3 < 2*2... one more needed
  tc.step(positive(4));  // P(1) = {1,4} saturated -> fetch both at once
  show(tc);

  std::puts("== negative requests (rule updates) evict the stale cap ==");
  tc.step(negative(1));
  tc.step(negative(1));
  tc.step(negative(3));
  tc.step(negative(3));  // H(1) = {1,3,4}? val decides; watch the cache
  show(tc);

  std::puts("== phase statistics ==");
  for (std::size_t i = 0; i < tc.phases().size(); ++i) {
    const PhaseStats& p = tc.phases()[i];
    std::printf("phase %zu: rounds %llu..%llu %s fetches=%llu evictions=%llu\n",
                i + 1, static_cast<unsigned long long>(p.first_round),
                static_cast<unsigned long long>(p.last_round),
                p.finished ? "(finished)" : "(open)",
                static_cast<unsigned long long>(p.fetches),
                static_cast<unsigned long long>(p.evictions));
  }
  return 0;
}

int main(int argc, char** argv) {
  return examples::run_main(example_main, argc, argv);
}
