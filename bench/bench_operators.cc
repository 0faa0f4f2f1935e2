// Micro-benchmarks of the physical algebra (google-benchmark): one
// benchmark per operator family, isolated through queries whose plans are
// dominated by that operator, plus the smart-aggregation early-exit
// ablation of Sec. 5.2.5 (exists vs count over the same input).
#include <benchmark/benchmark.h>

#include <memory>

#include "api/database.h"
#include "base/logging.h"
#include "gen/xdoc_generator.h"

namespace {

using natix::Database;

struct Fixture {
  std::unique_ptr<Database> db;
  natix::storage::NodeId root;
};

Fixture& GetFixture() {
  static Fixture* fixture = [] {
    auto f = new Fixture();
    natix::gen::XDocOptions options;
    options.max_elements = 20000;
    options.fanout = 10;
    options.depth = 5;
    auto db = Database::CreateTemp();
    NATIX_CHECK(db.ok());
    f->db = std::move(db.value());
    auto info = f->db->LoadDocument("doc",
                                    natix::gen::GenerateXDoc(options));
    NATIX_CHECK(info.ok());
    f->root = info->root;
    return f;
  }();
  return *fixture;
}

void RunQuery(benchmark::State& state, const char* query) {
  Fixture& fixture = GetFixture();
  auto compiled = fixture.db->Compile(query);
  NATIX_CHECK(compiled.ok());
  size_t results = 0;
  for (auto _ : state) {
    if ((*compiled)->prepared().result_type() ==
        natix::xpath::ExprType::kNodeSet) {
      auto nodes = (*compiled)->EvaluateNodes(fixture.root,
                                              /*document_order=*/false);
      NATIX_CHECK(nodes.ok());
      results = nodes->size();
    } else {
      auto value = (*compiled)->EvaluateValue(fixture.root);
      NATIX_CHECK(value.ok());
    }
  }
  state.counters["results"] = static_cast<double>(results);
}

// Unnest-map (location steps) — child chain and descendant walk.
void BM_UnnestMap_ChildChain(benchmark::State& state) {
  RunQuery(state, "/xdoc/n/n/n");
}
BENCHMARK(BM_UnnestMap_ChildChain);

void BM_UnnestMap_Descendant(benchmark::State& state) {
  RunQuery(state, "/descendant::n");
}
BENCHMARK(BM_UnnestMap_Descendant);

void BM_UnnestMap_Following(benchmark::State& state) {
  RunQuery(state, "/xdoc/n[1]/n[1]/following::n[position() < 500]");
}
BENCHMARK(BM_UnnestMap_Following);

// Selection with an NVM predicate over attributes.
void BM_Select_AttributeEquality(benchmark::State& state) {
  RunQuery(state, "//n[@id='12345']");
}
BENCHMARK(BM_Select_AttributeEquality);

// Duplicate elimination dominates parent-fan-in plans.
void BM_DupElim_ParentFanIn(benchmark::State& state) {
  RunQuery(state, "//n/parent::n");
}
BENCHMARK(BM_DupElim_ParentFanIn);

// Counter + positional selection (pipelined, no materialization).
void BM_Counter_Position(benchmark::State& state) {
  RunQuery(state, "/xdoc/n/n[position() = 3]");
}
BENCHMARK(BM_Counter_Position);

// Tmp^cs: context-size materialization.
void BM_TmpCs_Last(benchmark::State& state) {
  RunQuery(state, "/xdoc/n/n[position() = last()]");
}
BENCHMARK(BM_TmpCs_Last);

// Sort: filter expression with positional predicate forces document
// order on the whole intermediate set.
void BM_Sort_FilterExpr(benchmark::State& state) {
  RunQuery(state, "(//n)[last()]");
}
BENCHMARK(BM_Sort_FilterExpr);

// Smart aggregation (Sec. 5.2.5): exists() stops at the first tuple,
// count() drains 20k elements. The gap is the early-exit win.
void BM_Aggregate_ExistsEarlyExit(benchmark::State& state) {
  RunQuery(state, "boolean(//n)");
}
BENCHMARK(BM_Aggregate_ExistsEarlyExit);

void BM_Aggregate_CountFullDrain(benchmark::State& state) {
  RunQuery(state, "count(//n)");
}
BENCHMARK(BM_Aggregate_CountFullDrain);

void BM_Aggregate_Sum(benchmark::State& state) {
  RunQuery(state, "sum(/xdoc/n/@id)");
}
BENCHMARK(BM_Aggregate_Sum);

// Semi-join: node-set comparison with existential semantics.
void BM_SemiJoin_NodeSetEquality(benchmark::State& state) {
  RunQuery(state, "boolean(/xdoc/n/@id = /xdoc/n/n/@id)");
}
BENCHMARK(BM_SemiJoin_NodeSetEquality);

// MemoX: repeated inner-path evaluation with shared contexts.
void BM_MemoX_InnerPath(benchmark::State& state) {
  RunQuery(state, "/xdoc/n/n[count(desc::n/fol-sib::n) > 3]");
}
BENCHMARK(BM_MemoX_InnerPath);

// id() dereferencing through the lazily built id index.
void BM_IdDeref(benchmark::State& state) {
  RunQuery(state, "id('500 501 502 503')");
}
BENCHMARK(BM_IdDeref);

// NVM string machinery.
void BM_Nvm_StringFunctions(benchmark::State& state) {
  RunQuery(state,
           "count(//n[starts-with(@id, '1') and "
           "string-length(@id) > 3])");
}
BENCHMARK(BM_Nvm_StringFunctions);

}  // namespace

BENCHMARK_MAIN();
