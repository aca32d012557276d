// The specification checker must actually *fire* on non-TC behaviour — a
// validator that never rejects is untrustworthy. LocalTC violates TC's
// act-when-saturated rule; hand-tampered outcomes violate the service and
// changeset rules.
#include <gtest/gtest.h>

#include <string>

#include "baselines/local_tc.hpp"
#include "core/invariant_checker.hpp"
#include "core/trace.hpp"
#include "core/tree_cache.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"

namespace treecache {
namespace {

TEST(SpecChecker, RejectsLocalTcForIgnoringAggregateSaturation) {
  // Three requests at node 1 and one at node 2 saturate the valid
  // changeset {1,2} (pooled cnt 4 = 2 nodes * alpha 2) while NEITHER
  // node's own counter clears its local threshold at round 4 — LocalTC
  // does nothing, and the checker must flag the missed mandatory action.
  const Tree t = trees::path(3);
  LocalTc local(t, {.alpha = 2, .capacity = 3});
  SpecChecker checker(t, 2, 3, /*max_enum_candidates=*/8);

  const Trace trace{positive(1), positive(1), positive(1), positive(2)};
  std::string fired;
  for (const Request& r : trace) {
    const StepOutcome out = local.step(r);
    try {
      checker.observe(r, out);
    } catch (const CheckFailure& e) {
      fired = e.what();
      break;
    }
  }
  // It fires for the missed action, not for some other mismatch.
  EXPECT_NE(fired.find("saturated positive changeset exists with no action "
                       "taken"),
            std::string::npos)
      << "checker gave: '" << fired << "'";
}

TEST(SpecChecker, RejectsWrongServiceCharge) {
  const Tree t = trees::path(2);
  SpecChecker checker(t, 2, 2);
  StepOutcome lie;
  lie.paid = false;  // a positive miss MUST pay
  EXPECT_THROW(checker.observe(positive(1), lie), CheckFailure);
}

TEST(SpecChecker, RejectsUnderSaturatedFetch) {
  const Tree t = trees::path(2);
  SpecChecker checker(t, 4, 2);
  StepOutcome premature;
  premature.paid = true;
  premature.change = ChangeKind::kFetch;
  const std::vector<NodeId> fetched{1};
  premature.changed = fetched;
  // Only one request has been counted; a fetch needs cnt == alpha = 4.
  EXPECT_THROW(checker.observe(positive(1), premature), CheckFailure);
}

TEST(SpecChecker, RejectsInvalidChangesetShape) {
  const Tree t = trees::path(3);
  SpecChecker checker(t, 1, 3);
  StepOutcome bad;
  bad.paid = true;
  bad.change = ChangeKind::kFetch;
  const std::vector<NodeId> fetched{1};  // child 2 missing: not closed
  bad.changed = fetched;
  EXPECT_THROW(checker.observe(positive(1), bad), CheckFailure);
}

TEST(SpecChecker, RejectsFetchBeyondCapacity) {
  const Tree t = trees::star(4);
  SpecChecker checker(t, 1, /*capacity=*/1);
  // A valid, exactly-saturated fetch of {leaf} is fine...
  TreeCache tc(t, {.alpha = 1, .capacity = 1});
  checker.observe(positive(1), tc.step(positive(1)));
  // ...but a second leaf would exceed capacity; forge the outcome.
  StepOutcome forged;
  forged.paid = true;
  forged.change = ChangeKind::kFetch;
  const std::vector<NodeId> fetched{2};
  forged.changed = fetched;
  EXPECT_THROW(checker.observe(positive(2), forged), CheckFailure);
}

TEST(SpecChecker, AcceptsFullTcRunEndToEnd) {
  // Sanity inverse: a genuine TC run passes with exhaustive rounds > 0.
  const Tree t = trees::complete_kary(3, 2);
  TreeCache tc(t, {.alpha = 2, .capacity = 4});
  SpecChecker checker(t, 2, 4, /*max_enum_candidates=*/8);
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const Request r{static_cast<NodeId>(rng.below(t.size())),
                    rng.chance(0.4) ? Sign::kNegative : Sign::kPositive};
    ASSERT_NO_THROW(checker.observe(r, tc.step(r)));
  }
  EXPECT_GT(checker.exhaustive_rounds(), 0u);
}

}  // namespace
}  // namespace treecache
