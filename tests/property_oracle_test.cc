// Tests for the runtime property oracle: the debug-mode iterator wrapper
// that asserts statically inferred document-order / duplicate-freedom
// claims against the tuples an operator actually produces. Streams here
// are hand-built and deliberately lie, so the oracle must catch them;
// honest streams must pass untouched.

#include "qe/exec_context.h"
#include "qe/property_oracle.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "api/database.h"
#include "runtime/value.h"

namespace natix::qe {
namespace {

/// Emits a fixed list of values into one register.
class VectorIterator : public Iterator {
 public:
  VectorIterator(ExecutionContext* state, runtime::RegisterId reg,
                 std::vector<runtime::Value> values)
      : state_(state), reg_(reg), values_(std::move(values)) {}

 protected:
  Status OpenImpl() override {
    at_ = 0;
    return Status::OK();
  }

  Status NextImpl(bool* has) override {
    if (at_ >= values_.size()) {
      *has = false;
      return Status::OK();
    }
    state_->registers[reg_] = values_[at_++];
    *has = true;
    return Status::OK();
  }

  Status CloseImpl() override { return Status::OK(); }

 private:
  ExecutionContext* state_;
  runtime::RegisterId reg_;
  std::vector<runtime::Value> values_;
  size_t at_ = 0;
};

runtime::Value Node(uint32_t page, uint64_t order) {
  return runtime::Value::Node(
      runtime::NodeRef::Make(storage::NodeId{page, 0}, order));
}

/// Drains `iter` to completion, returning the first non-OK status.
Status Drain(Iterator* iter, size_t* tuples = nullptr) {
  NATIX_RETURN_IF_ERROR(iter->Open());
  bool has = true;
  size_t n = 0;
  while (true) {
    NATIX_RETURN_IF_ERROR(iter->Next(&has));
    if (!has) break;
    ++n;
  }
  if (tuples != nullptr) *tuples = n;
  return iter->Close();
}

struct OracleHarness {
  ExecutionContext state;

  OracleHarness() { state.registers.Resize(1); }

  Status Run(std::vector<runtime::Value> values, bool check_order,
             bool check_duplicate_free, size_t* tuples = nullptr) {
    PropertyOracleIterator oracle(
        &state, std::make_unique<VectorIterator>(&state, 0,
                                                 std::move(values)),
        0, check_order, check_duplicate_free, "test stream");
    return Drain(&oracle, tuples);
  }
};

TEST(PropertyOracleTest, HonestOrderedStreamPasses) {
  OracleHarness h;
  size_t tuples = 0;
  Status status = h.Run({Node(1, 10), Node(2, 20), Node(3, 30)},
                        /*check_order=*/true, /*check_duplicate_free=*/true,
                        &tuples);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(tuples, 3u);
}

TEST(PropertyOracleTest, NonStrictOrderAllowsEqualRuns) {
  // kDocOrdered is non-strict: repeated order keys are legal as long as
  // duplicate-freedom is not also claimed.
  OracleHarness h;
  Status status = h.Run({Node(1, 10), Node(1, 10), Node(2, 20)},
                        /*check_order=*/true, /*check_duplicate_free=*/false);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PropertyOracleTest, OrderViolationIsCaught) {
  OracleHarness h;
  Status status = h.Run({Node(1, 10), Node(3, 30), Node(2, 20)},
                        /*check_order=*/true, /*check_duplicate_free=*/false);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("document-order claim"),
            std::string::npos);
  EXPECT_NE(status.ToString().find("test stream"), std::string::npos);
}

TEST(PropertyOracleTest, DuplicateNodeIsCaught) {
  OracleHarness h;
  Status status = h.Run({Node(1, 10), Node(2, 20), Node(1, 10)},
                        /*check_order=*/false, /*check_duplicate_free=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("duplicate-freedom claim"),
            std::string::npos);
}

TEST(PropertyOracleTest, DuplicateAtomicValueIsCaught) {
  OracleHarness h;
  Status status = h.Run(
      {runtime::Value::Number(1), runtime::Value::Number(2),
       runtime::Value::Number(1)},
      /*check_order=*/false, /*check_duplicate_free=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("duplicate-freedom claim"),
            std::string::npos);
}

TEST(PropertyOracleTest, ReopenResetsTheClaimWindow) {
  // Dependent subplans re-open per outer tuple; claims hold per Open, so
  // the same node may reappear across re-openings.
  OracleHarness h;
  std::vector<runtime::Value> values = {Node(1, 10), Node(2, 20)};
  PropertyOracleIterator oracle(
      &h.state, std::make_unique<VectorIterator>(&h.state, 0, values), 0,
      /*check_order=*/true, /*check_duplicate_free=*/true, "reopened");
  EXPECT_TRUE(Drain(&oracle).ok());
  EXPECT_TRUE(Drain(&oracle).ok());
}

TEST(PropertyOracleTest, LimitContractHonestStreamPasses) {
  // A stream that honors its cap passes; the bound is inclusive.
  OracleHarness h;
  std::vector<runtime::Value> values = {Node(1, 10), Node(2, 20),
                                        Node(3, 30)};
  PropertyOracleIterator oracle(
      &h.state, std::make_unique<VectorIterator>(&h.state, 0, values), 0,
      /*check_order=*/true, /*check_duplicate_free=*/false, "Limit[3]");
  oracle.set_max_tuples(3);
  size_t tuples = 0;
  Status status = Drain(&oracle, &tuples);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(tuples, 3u);
}

TEST(PropertyOracleTest, LimitContractOverproductionAborts) {
  // A deliberately unsound pushdown: the plan claims at most 2 tuples
  // but the capped pipeline leaks a third. The oracle must abort the
  // execution rather than let the truncated-wrong result escape.
  OracleHarness h;
  std::vector<runtime::Value> values = {Node(1, 10), Node(2, 20),
                                        Node(3, 30)};
  PropertyOracleIterator oracle(
      &h.state, std::make_unique<VectorIterator>(&h.state, 0, values), 0,
      /*check_order=*/false, /*check_duplicate_free=*/false, "Limit[2]");
  oracle.set_max_tuples(2);
  Status status = Drain(&oracle);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("limit contract"), std::string::npos);
  EXPECT_NE(status.ToString().find("Limit[2]"), std::string::npos);
}

TEST(PropertyOracleTest, LimitContractResetsPerOpen) {
  // Dependent branches re-open per outer binding; the cap is per Open,
  // so two full drains of a compliant stream must both pass.
  OracleHarness h;
  std::vector<runtime::Value> values = {Node(1, 10), Node(2, 20)};
  PropertyOracleIterator oracle(
      &h.state, std::make_unique<VectorIterator>(&h.state, 0, values), 0,
      /*check_order=*/true, /*check_duplicate_free=*/false, "Limit[2]");
  oracle.set_max_tuples(2);
  EXPECT_TRUE(Drain(&oracle).ok());
  EXPECT_TRUE(Drain(&oracle).ok());
}

TEST(PropertyOracleTest, PositionalQueriesPassWithLimitContractArmed) {
  // End-to-end: positional queries whose plans gain a Limit run with
  // verification on, so the oracle checks the <= k contract and the
  // preserved-order claim on every tuple of the capped stream.
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument(
      "doc", "<r><a>1</a><a>2</a><a>3</a><a>4</a></r>");
  ASSERT_TRUE(info.ok());
  for (const char* query :
       {"/r/a[2]", "/r/a[position() = 3]", "/r/a[position() < 3]",
        "/r/a[position() <= 2]"}) {
    auto compiled = (*db)->Compile(query);
    ASSERT_TRUE(compiled.ok()) << query;
    bool has_limit = false;
    for (const algebra::RewriteEvent& event :
         (*compiled)->prepared().rewrites()) {
      if (event.rule == "limit:positional-pushdown") has_limit = true;
    }
    EXPECT_TRUE(has_limit) << query;
    auto nodes = (*compiled)->EvaluateNodes(info->root);
    EXPECT_TRUE(nodes.ok()) << query << ": " << nodes.status().ToString();
  }}

TEST(PropertyOracleTest, EndToEndQueriesPassWithOracleArmed) {
  // Compile + run real queries with verification (and thus the oracle)
  // on: every claim the inference engine makes must hold on the actual
  // tuple streams.
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument(
      "doc",
      "<r><a id='1'><b/><a id='2'><b/></a></a><a id='3'><b/></a></r>");
  ASSERT_TRUE(info.ok());
  for (const char* query :
       {"//a/b", "/r/a", "/descendant::a", "//a//b", "(//a/b)[1]",
        "/r/a/@id", "count(//a)", "//a[b]/@id",
        "/r/child::a/descendant::b"}) {
    auto compiled = (*db)->Compile(query);
    ASSERT_TRUE(compiled.ok()) << query;
    if ((*compiled)->prepared().result_type() == xpath::ExprType::kNodeSet) {
      auto nodes = (*compiled)->EvaluateNodes(info->root);
      EXPECT_TRUE(nodes.ok()) << query << ": " << nodes.status().ToString();
    } else {
      auto value = (*compiled)->EvaluateString(info->root);
      EXPECT_TRUE(value.ok()) << query << ": " << value.status().ToString();
    }
  }}

}  // namespace
}  // namespace natix::qe
