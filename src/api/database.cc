#include "api/database.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/document_loader.h"

namespace natix {

namespace {

/// The minimum pool size under which even a single query thrashes: the
/// index root-to-leaf path plus record/extent pages held pinned across
/// nested iterators.
constexpr size_t kMinBufferPages = 16;

size_t DefaultShards() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min<size_t>(hw, 8);
}

}  // namespace

Status Database::Options::Validate() const {
  if (buffer_pages < kMinBufferPages) {
    return Status::InvalidArgument(
        "buffer_pages=" + std::to_string(buffer_pages) +
        " is below the minimum working set of " +
        std::to_string(kMinBufferPages) +
        " pages (index root-to-leaf path plus pinned record pages)");
  }
  const size_t shards = EffectiveShards();
  if (buffer_pages < 2 * shards) {
    return Status::InvalidArgument(
        "buffer_pages=" + std::to_string(buffer_pages) +
        " is too small for " + std::to_string(shards) +
        " buffer shards (need at least 2 pages per shard)");
  }
  return Status::OK();
}

size_t Database::Options::EffectiveShards() const {
  size_t shards = buffer_shards == 0 ? DefaultShards() : buffer_shards;
  // Auto-selection never renders a valid pool invalid: clamp so every
  // shard keeps at least 2 pages.
  if (buffer_shards == 0 && buffer_pages < 2 * shards) {
    shards = std::max<size_t>(1, buffer_pages / 2);
  }
  return shards;
}

namespace {

StatusOr<storage::NodeStore::Options> StoreOptions(
    const Database::Options& options) {
  NATIX_RETURN_IF_ERROR(options.Validate());
  storage::NodeStore::Options store_options;
  store_options.buffer_pages = options.buffer_pages;
  store_options.buffer_shards = options.EffectiveShards();
  return store_options;
}

}  // namespace

StatusOr<std::unique_ptr<Database>> Database::Create(
    const std::string& path, const Options& options) {
  NATIX_ASSIGN_OR_RETURN(storage::NodeStore::Options store_options,
                         StoreOptions(options));
  NATIX_ASSIGN_OR_RETURN(std::unique_ptr<storage::NodeStore> store,
                         storage::NodeStore::Create(path, store_options));
  return std::unique_ptr<Database>(new Database(std::move(store), options));
}

StatusOr<std::unique_ptr<Database>> Database::Open(const std::string& path,
                                                   const Options& options) {
  NATIX_ASSIGN_OR_RETURN(storage::NodeStore::Options store_options,
                         StoreOptions(options));
  NATIX_ASSIGN_OR_RETURN(std::unique_ptr<storage::NodeStore> store,
                         storage::NodeStore::Open(path, store_options));
  return std::unique_ptr<Database>(new Database(std::move(store), options));
}

StatusOr<std::unique_ptr<Database>> Database::CreateTemp(
    const Options& options) {
  NATIX_ASSIGN_OR_RETURN(storage::NodeStore::Options store_options,
                         StoreOptions(options));
  NATIX_ASSIGN_OR_RETURN(std::unique_ptr<storage::NodeStore> store,
                         storage::NodeStore::CreateTemp(store_options));
  return std::unique_ptr<Database>(new Database(std::move(store), options));
}

StatusOr<storage::DocumentInfo> Database::LoadDocument(
    std::string_view name, std::string_view xml_text) {
  // Any load can grow the name dictionary; cached plans resolved their
  // NodeTest name ids against the old dictionary state, so drop them.
  plan_cache_.Clear();
  return storage::LoadDocument(store_.get(), name, xml_text);
}

StatusOr<storage::DocumentInfo> Database::LoadDocumentFile(
    std::string_view name, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadDocument(name, buffer.str());
}

StatusOr<storage::StoredNode> Database::Root(std::string_view name) const {
  NATIX_ASSIGN_OR_RETURN(storage::DocumentInfo info,
                         store_->FindDocument(name));
  return storage::StoredNode(store_.get(), info.root);
}

StatusOr<std::shared_ptr<const PreparedQuery>> Database::Prepare(
    std::string_view xpath,
    const translate::TranslatorOptions& options) const {
  const std::string key = PlanCache::MakeKey(xpath, options);
  if (std::shared_ptr<const PreparedQuery> hit = plan_cache_.Lookup(key)) {
    return hit;
  }
  NATIX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> prepared,
                         PreparedQuery::Prepare(xpath, store_.get(), options));
  plan_cache_.Insert(key, prepared);
  return prepared;
}

StatusOr<std::unique_ptr<PreparedQuery::Execution>> Database::Compile(
    std::string_view xpath, const translate::TranslatorOptions& options,
    bool collect_stats) const {
  NATIX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> prepared,
                         Prepare(xpath, options));
  return prepared->NewExecution(collect_stats);
}

StatusOr<std::vector<storage::StoredNode>> Database::QueryNodes(
    std::string_view document, std::string_view xpath) const {
  NATIX_ASSIGN_OR_RETURN(storage::DocumentInfo info,
                         store_->FindDocument(document));
  NATIX_ASSIGN_OR_RETURN(auto query, Compile(xpath));
  return query->EvaluateNodes(info.root);
}

StatusOr<std::string> Database::QueryString(std::string_view document,
                                            std::string_view xpath) const {
  NATIX_ASSIGN_OR_RETURN(storage::DocumentInfo info,
                         store_->FindDocument(document));
  NATIX_ASSIGN_OR_RETURN(auto query, Compile(xpath));
  return query->EvaluateString(info.root);
}

StatusOr<double> Database::QueryNumber(std::string_view document,
                                       std::string_view xpath) const {
  NATIX_ASSIGN_OR_RETURN(storage::DocumentInfo info,
                         store_->FindDocument(document));
  NATIX_ASSIGN_OR_RETURN(auto query, Compile(xpath));
  return query->EvaluateNumber(info.root);
}

StatusOr<bool> Database::QueryBoolean(std::string_view document,
                                      std::string_view xpath) const {
  NATIX_ASSIGN_OR_RETURN(storage::DocumentInfo info,
                         store_->FindDocument(document));
  NATIX_ASSIGN_OR_RETURN(auto query, Compile(xpath));
  return query->EvaluateBoolean(info.root);
}

Status Database::Flush() { return store_->Flush(); }

void Database::StartTrace() { obs::Tracer::Global().Start(); }

std::string Database::StopTrace() { return obs::Tracer::Global().StopJson(); }

std::string Database::MetricsSnapshot() {
  return obs::MetricsRegistry::Global().SnapshotJson();
}

void Database::SetSlowQueryThresholdNs(uint64_t ns) {
  obs::MetricsRegistry::Global().slow_log().set_threshold_ns(ns);
}

std::string Database::SlowQueryLogText() {
  return obs::MetricsRegistry::Global().slow_log().RenderText();
}

}  // namespace natix
