#include "server/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "base/clock.h"
#include "obs/lock_ledger.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "xml/writer.h"

namespace natix::server {

namespace {

/// JSON string escaping for query text, values and error messages.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

HttpResponse ErrorResponse(int status, uint64_t id, const Status& error) {
  std::string body = "{\"id\":" + std::to_string(id) + ",\"code\":\"" +
                     StatusCodeName(error.code()) + "\",\"error\":\"" +
                     JsonEscape(error.message()) + "\"}\n";
  return JsonResponse(status, std::move(body));
}

/// HTTP status for a failed evaluation, by Status code.
int HttpStatusFor(const Status& error) {
  switch (error.code()) {
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kCancelled: return 503;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotSupported: return 400;
    case StatusCode::kResourceExhausted: return 503;
    default: return 500;
  }
}

bool ParseUint64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

std::chrono::steady_clock::time_point SteadyFromNanos(uint64_t ns) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(ns)));
}

void SetSocketTimeout(int fd, int millis) {
  struct timeval timeout;
  timeout.tv_sec = millis / 1000;
  timeout.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

}  // namespace

Server::Server(Database* db, const ServerOptions& options)
    : db_(db), options_(options) {
  if (options_.max_concurrency == 0) options_.max_concurrency = 1;
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IOError("server: socket failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  // Loopback only: natixd has no authentication; exposure beyond the
  // host belongs to a fronting proxy.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("server: bind failed (port in use?)");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("server: listen failed");
  }
  start_ns_.store(MonotonicNanos(), std::memory_order_relaxed);
  acceptor_ = std::thread(&Server::AcceptLoop, this);
  return Status::OK();
}

void Server::Shutdown() {
  // Only the first caller tears down; repeats are no-ops (the tear-down
  // below joins every thread before the first call returns, and Server
  // lifetime is single-owner, so repeats come after it finished).
  if (shutdown_.exchange(true)) return;
  admission_cv_.notify_all();
  if (listen_fd_ >= 0) {
    // shutdown() breaks the acceptor out of accept(); close after join.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    obs::LedgeredMutexLock lock(conn_mu_, obs::LockClass::kServerConn);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> threads;
  {
    obs::LedgeredMutexLock lock(conn_mu_, obs::LockClass::kServerConn);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::AcceptLoop() {
  while (!shutdown_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down
    }
    obs::ScopedSpan span("server/accept");
    if (shutdown_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    if (open_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      obs::MetricsRegistry::Global().requests_rejected.Add();
      HttpResponse busy = JsonResponse(
          503, "{\"code\":\"ResourceExhausted\","
               "\"error\":\"too many connections\"}\n");
      (void)WriteHttpResponse(fd, busy, false);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetSocketTimeout(fd, options_.idle_timeout_ms);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    obs::LedgeredMutexLock lock(conn_mu_, obs::LockClass::kServerConn);
    conn_fds_.insert(fd);
    conn_threads_.emplace_back(&Server::ServeConnection, this, fd);
  }
}

void Server::ServeConnection(int fd) {
  while (!shutdown_.load(std::memory_order_relaxed)) {
    HttpRequest request;
    Status st;
    {
      obs::ScopedSpan span("server/parse");
      st = ReadHttpRequest(fd, &request);
    }
    if (!st.ok()) {
      if (st.code() == StatusCode::kInvalidArgument) {
        (void)WriteHttpResponse(fd, ErrorResponse(400, 0, st), false);
      }
      // Clean close, idle timeout, reset: just drop the connection.
      break;
    }
    HttpResponse response = Dispatch(request);
    bool keep = request.keep_alive &&
                !shutdown_.load(std::memory_order_relaxed);
    Status wst = WriteHttpResponse(fd, response, keep);
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (!wst.ok() || !keep) break;
  }
  {
    obs::LedgeredMutexLock lock(conn_mu_, obs::LockClass::kServerConn);
    conn_fds_.erase(fd);
  }
  ::close(fd);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

HttpResponse Server::Dispatch(const HttpRequest& request) {
  obs::MetricsRegistry::Global().http_requests.Add();
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  obs::ScopedSpan span("server/request",
                       request.method + " " + request.path);
  if (request.method != "GET" && request.method != "HEAD") {
    return ErrorResponse(
        405, id, Status::NotSupported("only GET/HEAD are supported"));
  }
  if (request.path == "/healthz") {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  }
  if (request.path == "/metrics") {
    HttpResponse response;
#if defined(NATIX_OBS_DISABLED)
    response.content_type = "application/json";
#else
    response.content_type = obs::kPrometheusContentType;
#endif
    response.body = RenderMetrics();
    return response;
  }
  if (request.path == "/statusz") {
    return JsonResponse(200, RenderStatus());
  }
  if (request.path == "/query") {
    HttpResponse response = HandleQuery(request);
    // The request id is patched into the payload by HandleQuery; keep
    // Dispatch ignorant of its JSON.
    return response;
  }
  return ErrorResponse(404, id,
                       Status::NotFound("no such endpoint: " + request.path));
}

Server::AdmitResult Server::Admit(uint64_t deadline_ns) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::LedgeredUniqueLock ledgered(admission_mu_,
                                  obs::LockClass::kAdmission);
  std::unique_lock<std::mutex>& lock = ledgered.lock();
  if (shutdown_.load(std::memory_order_relaxed)) {
    return AdmitResult::kShutdown;
  }
  if (executing_ < options_.max_concurrency) {
    ++executing_;
    metrics.queue_wait_ns.Record(0);
    return AdmitResult::kAdmitted;
  }
  if (waiting_ >= options_.queue_capacity) return AdmitResult::kRejected;
  ++waiting_;
  metrics.queue_depth.Set(static_cast<int64_t>(waiting_));
  const uint64_t enqueue_ns = MonotonicNanos();
  bool expired = false;
  while (executing_ >= options_.max_concurrency &&
         !shutdown_.load(std::memory_order_relaxed)) {
    if (deadline_ns != 0) {
      if (admission_cv_.wait_until(lock, SteadyFromNanos(deadline_ns)) ==
              std::cv_status::timeout &&
          MonotonicNanos() >= deadline_ns) {
        expired = true;
        break;
      }
    } else {
      admission_cv_.wait(lock);
    }
  }
  --waiting_;
  metrics.queue_depth.Set(static_cast<int64_t>(waiting_));
  if (expired) return AdmitResult::kDeadlineExpired;
  if (shutdown_.load(std::memory_order_relaxed)) {
    return AdmitResult::kShutdown;
  }
  ++executing_;
  metrics.queue_wait_ns.Record(MonotonicNanos() - enqueue_ns);
  return AdmitResult::kAdmitted;
}

void Server::Release() {
  {
    obs::LedgeredMutexLock lock(admission_mu_, obs::LockClass::kAdmission);
    --executing_;
  }
  admission_cv_.notify_one();
}

HttpResponse Server::HandleQuery(const HttpRequest& request) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);

  const std::string* doc = request.Param("doc");
  const std::string* xpath = request.Param("q");
  if (doc == nullptr || xpath == nullptr) {
    return ErrorResponse(
        400, id,
        Status::InvalidArgument("required parameters: doc=<name>, "
                                "q=<xpath>"));
  }
  uint64_t limit = 0;
  if (const std::string* p = request.Param("limit")) {
    if (!ParseUint64(*p, &limit)) {
      return ErrorResponse(400, id,
                           Status::InvalidArgument("bad limit parameter"));
    }
  }
  uint64_t deadline_ms = options_.default_deadline_ms;
  if (const std::string* p = request.Param("deadline_ms")) {
    if (!ParseUint64(*p, &deadline_ms)) {
      return ErrorResponse(
          400, id, Status::InvalidArgument("bad deadline_ms parameter"));
    }
  }
  std::string mode = "values";
  if (const std::string* p = request.Param("mode")) mode = *p;
  if (mode != "values" && mode != "xml" && mode != "count") {
    return ErrorResponse(
        400, id,
        Status::InvalidArgument("mode must be values, xml or count"));
  }

  StatusOr<storage::StoredNode> root = db_->Root(*doc);
  if (!root.ok()) {
    return ErrorResponse(404, id, root.status());
  }

  // The budget covers queue wait AND execution: an absolute deadline is
  // fixed before admission so a request cannot sit in the queue past it.
  const uint64_t deadline_ns =
      deadline_ms == 0 ? 0 : MonotonicNanos() + deadline_ms * 1000000ull;

  AdmitResult admitted;
  {
    obs::ScopedSpan span("server/queue");
    admitted = Admit(deadline_ns);
  }
  switch (admitted) {
    case AdmitResult::kAdmitted:
      break;
    case AdmitResult::kRejected:
      metrics.requests_rejected.Add();
      return ErrorResponse(
          503, id,
          Status::ResourceExhausted("admission queue full, try again"));
    case AdmitResult::kDeadlineExpired:
      // The execution never started, so the API layer cannot count it.
      metrics.deadline_exceeded.Add();
      return ErrorResponse(
          504, id,
          Status::DeadlineExceeded("deadline expired while queued"));
    case AdmitResult::kShutdown:
      metrics.requests_rejected.Add();
      return ErrorResponse(503, id,
                           Status::Cancelled("server shutting down"));
  }

  struct SlotRelease {
    Server* server;
    ~SlotRelease() {
      obs::MetricsRegistry::Global().requests_in_flight.Sub();
      server->Release();
    }
  } release{this};
  metrics.requests_in_flight.Add();

  // Prepare (plan cache keyed on text + options, so each distinct limit
  // is its own plan) and execute under the request's deadline, which
  // also bounds the compile: a request whose plan took past it to
  // prepare is answered without executing.
  translate::TranslatorOptions topts;
  topts.result_limit = limit;
  const uint64_t begin_ns = MonotonicNanos();
  std::string body;
  {
    obs::ScopedSpan span("server/exec", *xpath);
    StatusOr<std::shared_ptr<const PreparedQuery>> prepared =
        db_->Prepare(*xpath, topts);
    if (!prepared.ok()) {
      return ErrorResponse(HttpStatusFor(prepared.status()), id,
                           prepared.status());
    }
    if (deadline_ns != 0 && MonotonicNanos() >= deadline_ns) {
      // Like a queued expiry, no execution starts for the API to count.
      metrics.deadline_exceeded.Add();
      return ErrorResponse(
          504, id,
          Status::DeadlineExceeded("deadline expired while compiling"));
    }
    StatusOr<std::unique_ptr<PreparedQuery::Execution>> execution =
        (*prepared)->NewExecution(options_.collect_stats);
    if (!execution.ok()) {
      return ErrorResponse(HttpStatusFor(execution.status()), id,
                           execution.status());
    }
    (*execution)->SetDeadlineNs(deadline_ns);
    (*execution)->SetCancelFlag(&shutdown_);

    std::string head = "{\"id\":" + std::to_string(id) + ",\"doc\":\"" +
                       JsonEscape(*doc) + "\",\"query\":\"" +
                       JsonEscape(*xpath) + "\",\"mode\":\"" + mode +
                       "\",";
    if ((*prepared)->result_type() == xpath::ExprType::kNodeSet) {
      StatusOr<std::vector<storage::StoredNode>> nodes =
          (*execution)->EvaluateNodes(root->id());
      if (!nodes.ok()) {
        return ErrorResponse(HttpStatusFor(nodes.status()), id,
                             nodes.status());
      }
      obs::ScopedSpan serialize_span("server/serialize");
      body = std::move(head);
      body += "\"count\":" + std::to_string(nodes->size());
      if (mode != "count") {
        body += ",\"results\":[";
        bool first = true;
        for (const storage::StoredNode& node : *nodes) {
          StatusOr<std::string> rendered =
              mode == "xml" ? xml::OuterXml(node) : node.string_value();
          if (!rendered.ok()) {
            return ErrorResponse(500, id, rendered.status());
          }
          if (!first) body += ',';
          first = false;
          body += '"';
          body += JsonEscape(*rendered);
          body += '"';
        }
        body += ']';
      }
    } else {
      StatusOr<std::string> value = (*execution)->EvaluateString(root->id());
      if (!value.ok()) {
        return ErrorResponse(HttpStatusFor(value.status()), id,
                             value.status());
      }
      obs::ScopedSpan serialize_span("server/serialize");
      body = std::move(head);
      body += "\"value\":\"" + JsonEscape(*value) + '"';
    }
    const ExecutionStats& stats = (*execution)->last_stats();
    body += ",\"elapsed_ns\":" + std::to_string(MonotonicNanos() - begin_ns);
    body += ",\"page_faults\":" + std::to_string(stats.page_faults);
    body += ",\"tuples\":" + std::to_string(stats.step_tuples);
    body += "}\n";
  }
  return JsonResponse(200, std::move(body));
}

std::string Server::RenderMetrics() const {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
#if defined(NATIX_OBS_DISABLED)
  return obs::RenderPrometheus(metrics);  // the {"disabled":true} stub
#else
  std::string out = obs::RenderPrometheus(metrics);
  // Serving- and storage-level series that live outside the registry.
  const PlanCache& cache = db_->plan_cache();
  obs::AppendPrometheusGauge(&out, "natix_plan_cache_entries",
                             "Prepared plans currently cached.",
                             static_cast<int64_t>(cache.size()));
  obs::AppendPrometheusGauge(&out, "natix_plan_cache_capacity",
                             "Configured plan cache capacity.",
                             static_cast<int64_t>(cache.capacity()));
  obs::AppendPrometheusCounter(&out, "natix_plan_cache_evictions_total",
                               "Plans evicted from the cache.",
                               cache.eviction_count());
  const storage::BufferManager* pool = db_->store()->buffer_manager();
  storage::BufferManager::CounterSnapshot snap = pool->Snapshot();
  obs::AppendPrometheusCounter(&out, "natix_buffer_faults_total",
                               "Pages faulted in from the file.",
                               snap.faults);
  obs::AppendPrometheusCounter(&out, "natix_buffer_hits_total",
                               "Page fixes served from the pool.",
                               snap.hits);
  obs::AppendPrometheusCounter(&out, "natix_buffer_writes_total",
                               "Dirty pages written back.", snap.writes);
  obs::AppendPrometheusCounter(&out, "natix_buffer_evictions_total",
                               "Resident pages replaced by the clock.",
                               snap.evictions);
  size_t resident = 0;
  for (const storage::BufferManager::ShardSnapshot& shard :
       pool->ShardSnapshots()) {
    resident += shard.resident_pages;
  }
  obs::AppendPrometheusGauge(&out, "natix_buffer_pool_pages",
                             "Buffer pool capacity in page frames.",
                             static_cast<int64_t>(pool->capacity()));
  obs::AppendPrometheusGauge(&out, "natix_buffer_resident_pages",
                             "Pages currently mapped in the pool.",
                             static_cast<int64_t>(resident));
  obs::AppendPrometheusGauge(
      &out, "natix_open_connections", "Connections currently open.",
      static_cast<int64_t>(
          open_connections_.load(std::memory_order_relaxed)));
  obs::AppendPrometheusGauge(
      &out, "natix_documents", "Documents loaded in the store.",
      static_cast<int64_t>(db_->store()->documents().size()));
  const uint64_t start = start_ns_.load(std::memory_order_relaxed);
  obs::AppendPrometheusGauge(
      &out, "natix_uptime_seconds", "Seconds since the server started.",
      start == 0
          ? 0
          : static_cast<int64_t>((MonotonicNanos() - start) / 1000000000ull));
  return out;
#endif
}

std::string Server::RenderStatus() const {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  size_t executing = 0;
  size_t waiting = 0;
  {
    obs::LedgeredMutexLock lock(admission_mu_, obs::LockClass::kAdmission);
    executing = executing_;
    waiting = waiting_;
  }
  const uint64_t start = start_ns_.load(std::memory_order_relaxed);
  std::string out = "{\"uptime_s\":";
  out += std::to_string(
      start == 0 ? 0 : (MonotonicNanos() - start) / 1000000000ull);
  out += ",\"admission\":{\"max_concurrency\":";
  out += std::to_string(options_.max_concurrency);
  out += ",\"queue_capacity\":";
  out += std::to_string(options_.queue_capacity);
  out += ",\"executing\":";
  out += std::to_string(executing);
  out += ",\"waiting\":";
  out += std::to_string(waiting);
  out += ",\"open_connections\":";
  out += std::to_string(open_connections_.load(std::memory_order_relaxed));
  out += "},\"requests\":{\"served\":";
  out += std::to_string(requests_served_.load(std::memory_order_relaxed));
  out += ",\"http\":";
  out += std::to_string(metrics.http_requests.value());
  out += ",\"rejected\":";
  out += std::to_string(metrics.requests_rejected.value());
  out += ",\"deadline_exceeded\":";
  out += std::to_string(metrics.deadline_exceeded.value());
  out += ",\"cancelled\":";
  out += std::to_string(metrics.queries_cancelled.value());
  out += "},\"documents\":[";
  {
    bool first = true;
    for (const storage::DocumentInfo& info : db_->store()->documents()) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += JsonEscape(info.name);
      out += '"';
    }
  }
  out += "],\"plan_cache\":{\"capacity\":";
  const PlanCache& cache = db_->plan_cache();
  out += std::to_string(cache.capacity());
  out += ",\"size\":";
  out += std::to_string(cache.size());
  out += ",\"hits\":";
  out += std::to_string(cache.hit_count());
  out += ",\"misses\":";
  out += std::to_string(cache.miss_count());
  out += ",\"evictions\":";
  out += std::to_string(cache.eviction_count());
  out += "},\"buffer_pool\":{\"pages\":";
  const storage::BufferManager* pool = db_->store()->buffer_manager();
  out += std::to_string(pool->capacity());
  out += ",\"shards\":[";
  {
    bool first = true;
    for (const storage::BufferManager::ShardSnapshot& shard :
         pool->ShardSnapshots()) {
      if (!first) out += ',';
      first = false;
      out += "{\"faults\":";
      out += std::to_string(shard.faults);
      out += ",\"hits\":";
      out += std::to_string(shard.hits);
      out += ",\"writes\":";
      out += std::to_string(shard.writes);
      out += ",\"evictions\":";
      out += std::to_string(shard.evictions);
      out += ",\"resident_pages\":";
      out += std::to_string(shard.resident_pages);
      out += '}';
    }
  }
  out += "]},\"slow_queries\":[";
  {
    bool first = true;
    for (const obs::SlowQueryEntry& entry : metrics.slow_log().Dump()) {
      if (!first) out += ',';
      first = false;
      out += "{\"sequence\":";
      out += std::to_string(entry.sequence);
      out += ",\"xpath\":\"";
      out += JsonEscape(entry.xpath);
      out += "\",\"exec_ns\":";
      out += std::to_string(entry.exec_ns);
      out += ",\"page_faults\":";
      out += std::to_string(entry.page_faults);
      out += ",\"tuples\":";
      out += std::to_string(entry.tuples);
      out += '}';
    }
  }
  out += "],\"lock_ledger\":";
  out += obs::LockLedger::Global().GraphJson();
  out += "}\n";
  return out;
}

}  // namespace natix::server
