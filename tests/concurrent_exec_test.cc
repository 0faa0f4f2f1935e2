// Concurrent executions over shared prepared plans: the central claim
// of the plan/execution split is that one immutable PreparedQuery can
// back any number of simultaneous executions. Eight threads hammer the
// same paper-shaped plans (and the same buffer pool, with one stripe and
// with eight) and every result must byte-for-byte match the
// single-threaded golden.
// The tsan CI job runs this binary with -fsanitize=thread, so latent
// races in the template, the plan cache, or the pool surface here.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "base/logging.h"
#include "gen/xdoc_generator.h"

namespace natix {
namespace {

/// The five query shapes of the paper's evaluation (Figs. 6-10): the
/// four generated-document axis cascades plus a positional predicate.
/// The last two add nested subscripts: a count() predicate over a path
/// with its own existential predicate, and a nested plan inside a
/// nested plan, so every execution also instantiates nested-plan slots
/// and subscripts borrowing the shared template's programs.
const char* kPaperQueries[] = {
    "/child::xdoc/desc::*/anc::*/desc::*/@id",
    "/child::xdoc/desc::*/pre-sib::*/fol::*/@id",
    "/child::xdoc/desc::*/anc::*/anc::*/@id",
    "/child::xdoc/child::*/par::*/desc::*/@id",
    "/xdoc/n[position() = last()]/@id",
    "/xdoc/desc::n[count(n[n]) > 1]/@id",
    "/xdoc/desc::n[count(n[count(n) > 1]) > 0]/@id",
};

struct SharedFixture {
  std::unique_ptr<Database> db;
  storage::NodeId root;
  std::vector<std::shared_ptr<const PreparedQuery>> plans;
  /// Golden node-id sequences, computed single-threaded.
  std::vector<std::vector<storage::NodeId>> golden;
};

SharedFixture MakeFixture(size_t buffer_shards = 8) {
  SharedFixture f;
  Database::Options options;
  options.buffer_pages = 16;  // minimum pool: eviction traffic even on
                              // a small document
  options.buffer_shards = buffer_shards;
  auto db = Database::CreateTemp(options);
  NATIX_CHECK(db.ok());
  f.db = std::move(db).value();

  // Small document: the stress lies in 1600 concurrent executions, not
  // in per-query work — tsan runs this binary and multiplies every
  // evaluation's cost by an order of magnitude.
  gen::XDocOptions gen_options;
  gen_options.max_elements = 120;
  gen_options.fanout = 4;
  gen_options.depth = 4;
  auto info = f.db->LoadDocument("doc", gen::GenerateXDoc(gen_options));
  NATIX_CHECK(info.ok());
  f.root = info->root;

  for (const char* query : kPaperQueries) {
    auto plan = f.db->Prepare(query);
    NATIX_CHECK(plan.ok());
    f.plans.push_back(std::move(plan).value());
  }
  for (const auto& plan : f.plans) {
    auto exec = plan->NewExecution();
    NATIX_CHECK(exec.ok());
    auto nodes = (*exec)->EvaluateNodes(f.root);
    NATIX_CHECK(nodes.ok());
    std::vector<storage::NodeId> ids;
    ids.reserve(nodes->size());
    for (const storage::StoredNode& node : *nodes) ids.push_back(node.id());
    NATIX_CHECK(!ids.empty());  // golden must exercise real work
    f.golden.push_back(std::move(ids));
  }
  return f;
}

/// Parametrized over the buffer-pool stripe count: 1 is the classic
/// single-latch pool, 8 the striped one.
class ConcurrentExecShardsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ConcurrentExecShardsTest, EightThreadsMatchSequentialGoldens) {
  SharedFixture f = MakeFixture(GetParam());

  constexpr int kThreads = 8;
  constexpr int kExecutionsPerThread = 200;
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each worker instantiates its own executions once and reuses
      // them, the intended steady-state shape of the API. Odd workers
      // collect per-operator stats, so stats trees are built from the
      // shared lowered plan concurrently with uninstrumented contexts.
      std::vector<std::unique_ptr<PreparedQuery::Execution>> execs;
      for (const auto& plan : f.plans) {
        auto exec = plan->NewExecution(/*collect_stats=*/t % 2 == 1);
        if (!exec.ok()) {
          ++errors;
          return;
        }
        execs.push_back(std::move(exec).value());
      }
      for (int round = 0; round < kExecutionsPerThread; ++round) {
        size_t i = static_cast<size_t>(t + round) % execs.size();
        auto nodes = execs[i]->EvaluateNodes(f.root);
        if (!nodes.ok()) {
          ++errors;
          return;
        }
        if (nodes->size() != f.golden[i].size()) {
          ++mismatches;
          return;
        }
        for (size_t k = 0; k < nodes->size(); ++k) {
          if ((*nodes)[k].id() != f.golden[i][k]) {
            ++mismatches;
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(BufferShards, ConcurrentExecShardsTest,
                         ::testing::Values(size_t{1}, size_t{8}),
                         ::testing::PrintToStringParamName());

TEST(ConcurrentExecTest, SharedPlanOutlivesItsDatabaseHandleHolders) {
  // Executions pin their PreparedQuery via shared_ptr: dropping every
  // other reference (including the plan cache's, via reload) must leave
  // in-flight executions valid.
  SharedFixture f = MakeFixture();
  auto exec = f.plans[4]->NewExecution();
  ASSERT_TRUE(exec.ok());
  auto golden = f.golden[4];
  f.plans.clear();  // only the execution's internal pin remains
  auto nodes = (*exec)->EvaluateNodes(f.root);
  ASSERT_TRUE(nodes.ok());
  ASSERT_EQ(nodes->size(), golden.size());
  for (size_t k = 0; k < nodes->size(); ++k) {
    EXPECT_EQ((*nodes)[k].id(), golden[k]);
  }
}

TEST(ConcurrentExecTest, CoherentSnapshotsNeverTearUnderLoad) {
  // A sampler thread takes coherent Snapshot()s while eight readers
  // fault and evict through the striped pool. Coherence invariants:
  // both sums are monotone between snapshots, and on a pool whose
  // capacity is far below the document, faults imply evictions once
  // the pool is full (never more evictions than faults).
  SharedFixture f = MakeFixture();
  const storage::BufferManager* bm = f.db->store()->buffer_manager();

  std::atomic<bool> stop{false};
  std::atomic<int> sampler_failures{0};
  std::thread sampler([&] {
    storage::BufferManager::CounterSnapshot prev = bm->Snapshot();
    while (!stop.load()) {
      storage::BufferManager::CounterSnapshot snap = bm->Snapshot();
      if (snap.faults < prev.faults || snap.hits < prev.hits ||
          snap.evictions < prev.evictions || snap.writes < prev.writes ||
          snap.evictions > snap.faults) {
        ++sampler_failures;
        break;
      }
      prev = snap;
    }
  });

  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      auto exec = f.plans[static_cast<size_t>(t) % f.plans.size()]
                      ->NewExecution();
      if (!exec.ok()) {
        ++errors;
        return;
      }
      for (int round = 0; round < 25; ++round) {
        if (!(*exec)->EvaluateNodes(f.root).ok()) {
          ++errors;
          return;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true);
  sampler.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(sampler_failures.load(), 0);
}

}  // namespace
}  // namespace natix
