// Synthetic RIB (routing table) generator.
//
// SUBSTITUTION: the paper motivates the problem with real BGP tables
// (Route-Views) but runs no experiment on them; no public RIB snapshot
// ships with this repository. The generator reproduces the two structural
// properties that matter for tree caching:
//   * a realistic prefix-length histogram (mass peaked at /24, secondary
//     mass at /16..: the classic BGP shape; for IPv6, peaked at /48 with
//     ridges at /32 and /64), and
//   * nesting ("deaggregation"): a tunable fraction of prefixes are drawn
//     as more-specific children of existing prefixes, which is what gives
//     the rule tree its depth and branching.
// Real tables enter through src/rib/ (feed ingest) instead; this stays the
// self-contained source for CI-sized universes and fixtures.
#pragma once

#include <cstddef>
#include <vector>

#include "fib/ipv4.hpp"
#include "fib/ipv6.hpp"
#include "util/rng.hpp"

namespace treecache::fib {

struct RibConfig {
  std::size_t rules = 10000;
  /// Probability that a new prefix is generated as a more-specific child
  /// of an already generated prefix (1–8 extra bits).
  double deaggregation = 0.45;
  /// Cap on prefix length (real tables rarely carry anything past /24
  /// globally; set 32 to allow host routes. IPv6 callers pass up to 128,
  /// typically 64).
  std::uint8_t max_length = 24;
};

/// Generates `config.rules` distinct IPv4 prefixes.
[[nodiscard]] std::vector<Prefix> generate_rib(const RibConfig& config,
                                               Rng& rng);

/// Generates `config.rules` distinct IPv6 prefixes (pass max_length up to
/// 128; the /48-peaked histogram below supplies the length shape).
[[nodiscard]] std::vector<Prefix6> generate_rib6(const RibConfig& config,
                                                 Rng& rng);

/// The default IPv4 prefix-length histogram (index = length 0..32, value =
/// relative mass), modelled on the published shape of global BGP tables.
[[nodiscard]] const std::vector<double>& default_length_histogram();

/// The IPv6 counterpart (index = length 0..128): mass peaked at /48 with
/// secondary ridges at /32 (RIR allocations) and /64.
[[nodiscard]] const std::vector<double>& default_length_histogram6();

/// Generic core shared by both families: samples lengths from
/// `histogram[len]` (relative mass per length, clamped to the lowest
/// length carrying mass) and deaggregates with the family's key width.
template <typename PrefixT>
[[nodiscard]] std::vector<PrefixT> generate_prefixes(
    const RibConfig& config, const std::vector<double>& histogram, Rng& rng);

}  // namespace treecache::fib
