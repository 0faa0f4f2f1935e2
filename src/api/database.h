#ifndef NATIX_API_DATABASE_H_
#define NATIX_API_DATABASE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/plan_cache.h"
#include "api/prepared_query.h"
#include "base/statusor.h"
#include "storage/node_store.h"
#include "storage/stored_node.h"

namespace natix {

/// The top-level facade of the library: a native XML database holding
/// documents in a page-based store, compiling and executing XPath 1.0
/// queries through the algebraic pipeline.
///
///   auto db = natix::Database::CreateTemp();
///   db->LoadDocument("books", xml_text);
///   auto titles = db->QueryNodes("books", "/catalog/book/title");
///
/// Concurrent use: Prepare() hands out immutable plans that any number
/// of threads can instantiate executions from; the buffer pool is
/// striped (`Options::buffer_shards`) so those executions don't
/// serialize on one pool latch. Document loading is not concurrent with
/// query execution.
class Database {
 public:
  struct Options {
    Options() {}
    /// Buffer pool size in pages (8 KiB each).
    size_t buffer_pages = 4096;
    /// Number of buffer-pool stripes (mutex + clock + page table each).
    /// 0 picks a default from the hardware concurrency; 1 reproduces
    /// the classic single-lock pool.
    size_t buffer_shards = 0;
    /// Capacity of the prepared-plan LRU cache consulted by Compile()
    /// and Prepare(). 0 disables plan caching.
    size_t plan_cache_capacity = 64;

    /// Checks the configuration for nonsense that would technically run
    /// but thrash or deadlock-by-starvation in practice:
    ///  - buffer_pages below the root-to-leaf working set (a handful of
    ///    index inner pages plus record/extent pages per open iterator;
    ///    16 pages is the floor under which even single queries thrash),
    ///  - fewer than 2 pages per shard (a 1-page shard cannot hold a
    ///    pinned page and fault a second one through the same stripe).
    Status Validate() const;
    /// The shard count actually used: buffer_shards, or the hardware
    /// default when 0 (clamped so every shard keeps >= 2 pages).
    size_t EffectiveShards() const;
  };

  /// Creates a new database file (truncating any existing one).
  static StatusOr<std::unique_ptr<Database>> Create(
      const std::string& path, const Options& options = Options());
  /// Opens an existing database file.
  static StatusOr<std::unique_ptr<Database>> Open(
      const std::string& path, const Options& options = Options());
  /// Creates an anonymous scratch database (removed when closed).
  static StatusOr<std::unique_ptr<Database>> CreateTemp(
      const Options& options = Options());

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Parses `xml_text` and stores it as document `name`. Invalidates
  /// the plan cache (prepared plans bake in name-dictionary ids).
  StatusOr<storage::DocumentInfo> LoadDocument(std::string_view name,
                                               std::string_view xml_text);
  /// Loads a document from a file on disk.
  StatusOr<storage::DocumentInfo> LoadDocumentFile(std::string_view name,
                                                   const std::string& path);

  /// The document node of document `name`.
  StatusOr<storage::StoredNode> Root(std::string_view name) const;

  /// Compiles (or serves from the plan cache) an immutable, shareable
  /// prepared query. This is the concurrent API: one Prepare, then one
  /// PreparedQuery::NewExecution per thread.
  StatusOr<std::shared_ptr<const PreparedQuery>> Prepare(
      std::string_view xpath,
      const translate::TranslatorOptions& options =
          translate::TranslatorOptions::Improved()) const;

  /// Prepare() plus one NewExecution(): a reusable, single-threaded
  /// execution whose plan is served from the cache when possible. With
  /// `collect_stats` it carries the per-operator EXPLAIN ANALYZE
  /// counters (Execution::Stats). Explain and type accessors live on
  /// its prepared() query.
  StatusOr<std::unique_ptr<PreparedQuery::Execution>> Compile(
      std::string_view xpath,
      const translate::TranslatorOptions& options =
          translate::TranslatorOptions::Improved(),
      bool collect_stats = false) const;

  // One-shot helpers, evaluated with the document node of `document` as
  // the context node.
  StatusOr<std::vector<storage::StoredNode>> QueryNodes(
      std::string_view document, std::string_view xpath) const;
  StatusOr<std::string> QueryString(std::string_view document,
                                    std::string_view xpath) const;
  StatusOr<double> QueryNumber(std::string_view document,
                               std::string_view xpath) const;
  StatusOr<bool> QueryBoolean(std::string_view document,
                              std::string_view xpath) const;

  /// Persists all state to disk.
  Status Flush();

  // -- process-wide observability (src/obs; no-ops under NATIX_OBS=OFF) --

  /// Starts collecting pipeline/executor spans; affects every database
  /// in the process (the tracer is process-global).
  static void StartTrace();
  /// Stops tracing and returns the trace as Chrome trace_event JSON
  /// (loadable in Perfetto / chrome://tracing).
  static std::string StopTrace();
  /// JSON snapshot of the process-wide metrics registry (latency
  /// histograms and counters fed by every compile/execute).
  static std::string MetricsSnapshot();
  /// Queries whose execution time reaches `ns` are recorded in the
  /// slow-query log (0 logs everything; see obs::SlowQueryLog to
  /// disable again or read entries structurally).
  static void SetSlowQueryThresholdNs(uint64_t ns);
  /// Human-readable dump of the slow-query log ring buffer.
  static std::string SlowQueryLogText();

  storage::NodeStore* store() { return store_.get(); }
  const storage::NodeStore* store() const { return store_.get(); }

  /// The prepared-plan cache (introspection: size, hits, evictions).
  const PlanCache& plan_cache() const { return plan_cache_; }

 private:
  Database(std::unique_ptr<storage::NodeStore> store, const Options& options)
      : store_(std::move(store)),
        plan_cache_(options.plan_cache_capacity) {}

  std::unique_ptr<storage::NodeStore> store_;
  /// mutable: Compile()/Prepare() are logically const reads of the
  /// database; the cache is internally synchronized.
  mutable PlanCache plan_cache_;
};

}  // namespace natix

#endif  // NATIX_API_DATABASE_H_
