// Negative tests for Layer 4 of the static plan verifier: hand-built
// physical models with injected resource-effect defects (a pin leak, a
// missing Close on the abort path) must be rejected with a diagnostic
// naming the offending operator — and the matching runtime ledger must
// catch the same classes of defect when an execution leaks. Positive
// coverage (every compiler-produced plan passes Layer 4) is enforced
// binary-wide by verify_env_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "analysis/plan_verifier.h"

namespace natix::analysis {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

PhysNodePtr Node(PhysNodeKind kind, const std::string& label) {
  auto node = std::make_unique<PhysNode>();
  node->kind = kind;
  node->label = label;
  return node;
}

PhysicalModel WrapRoot(PhysNodePtr root) {
  PhysicalModel model;
  model.root = std::move(root);
  model.register_count = 1;
  model.context_regs = {0};
  model.result_reg = 0;
  return model;
}

void ExpectRejected(const Status& status, const std::string& fragment) {
  ASSERT_FALSE(status.ok()) << "expected a Layer-4 violation";
  EXPECT_NE(status.message().find(fragment), std::string::npos)
      << "diagnostic was: " << status.message();
}

// ---------------------------------------------------------------------------
// Injected resource-effect defects
// ---------------------------------------------------------------------------

TEST(ResourceVerifierTest, RejectsInjectedPinLeak) {
  // An UnnestMap that declares a storage cursor but no release on Close:
  // its page pins would survive a Limit early-exit.
  PhysNodePtr scan = Node(PhysNodeKind::kLeaf, "SingletonScan");
  PhysNodePtr step = Node(PhysNodeKind::kPipeline, "UnnestMap[c2@r1]");
  step->effects.holds_cursor = true;
  step->effects.cursor_released_on_close = false;
  step->effects.child_close = {ChildClose::kOnClose};
  step->children.push_back(std::move(scan));
  ExpectRejected(VerifyLowered(WrapRoot(std::move(step))),
                 "UnnestMap[c2@r1]: holds a storage cursor but does not "
                 "release it on Close");
}

TEST(ResourceVerifierTest, RejectsMissingCloseOnAbortPath) {
  // A join whose Close ignores its right side while that side keeps a
  // full spool: a deadline abort between Next calls leaks the spool.
  PhysNodePtr spooler = Node(PhysNodeKind::kPipeline, "Sort[r1]");
  spooler->effects.spool = SpoolKind::kFull;
  spooler->effects.spool_released_on_close = true;
  spooler->effects.child_close = {ChildClose::kOnClose};
  spooler->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));

  PhysNodePtr join = Node(PhysNodeKind::kDependent, "DJoin");
  join->effects.child_close = {ChildClose::kOnClose, ChildClose::kNone};
  join->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));
  join->children.push_back(std::move(spooler));
  ExpectRejected(VerifyLowered(WrapRoot(std::move(join))),
                 "Sort[r1]: subtree holds resources but no Close reaches "
                 "it on the abort path (close-on-all-paths violation)");
}

TEST(ResourceVerifierTest, RejectsUncontainedSpool) {
  PhysNodePtr spooler = Node(PhysNodeKind::kPipeline, "TmpCs[cs3]");
  spooler->effects.spool = SpoolKind::kGroup;
  spooler->effects.spool_released_on_close = false;
  spooler->effects.child_close = {ChildClose::kOnClose};
  spooler->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));
  ExpectRejected(VerifyLowered(WrapRoot(std::move(spooler))),
                 "TmpCs[cs3]: keeps a group spool that Close does not drop "
                 "(spool-containment violation)");
}

TEST(ResourceVerifierTest, RejectsEffectArityMismatch) {
  PhysNodePtr join = Node(PhysNodeKind::kDependent, "DJoin");
  join->effects.child_close = {ChildClose::kOnClose};  // two children
  join->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));
  join->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));
  ExpectRejected(VerifyLowered(WrapRoot(std::move(join))),
                 "DJoin: declares 1 child-close modes for 2 children");
}

TEST(ResourceVerifierTest, MemoSpoolsMayOutliveClose) {
  // MemoX keeps its keyed table across re-Opens by design; the verifier
  // must not demand release-on-close for kMemo.
  PhysNodePtr memo = Node(PhysNodeKind::kPipeline, "MemoX[c4]");
  memo->effects.spool = SpoolKind::kMemo;
  memo->effects.spool_released_on_close = false;
  memo->effects.child_close = {ChildClose::kOnClose};
  memo->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));
  EXPECT_TRUE(VerifyLowered(WrapRoot(std::move(memo))).ok());
}

TEST(ResourceVerifierTest, ProbeContainedChildIsSafeWithoutCloseForwarding) {
  // A semi-join probe side holding a cursor is fine: each probe balances
  // within one Next, so an external Close never finds it open.
  PhysNodePtr probe = Node(PhysNodeKind::kPipeline, "UnnestMap[probe]");
  probe->effects.holds_cursor = true;
  probe->effects.cursor_released_on_close = true;
  probe->effects.child_close = {ChildClose::kOnClose};
  probe->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));

  PhysNodePtr semi = Node(PhysNodeKind::kDependentLeft, "SemiJoin");
  semi->effects.child_close = {ChildClose::kOnClose,
                               ChildClose::kProbeContained};
  semi->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));
  semi->children.push_back(std::move(probe));
  EXPECT_TRUE(VerifyLowered(WrapRoot(std::move(semi))).ok());
}

}  // namespace
}  // namespace natix::analysis
