#include "harness.h"

#include <malloc.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>

#include "base/clock.h"
#include "base/xpath_number.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"
#include "obs/stats.h"
#include "storage/stored_node.h"
#include "xml/escape.h"
#include "xml/reader.h"

namespace perfbench {

using natix::Database;
using natix::storage::StoredNode;

uint64_t NowNs() { return natix::MonotonicNanos(); }

namespace {

/// Per-name totals over a set of logs: call count, summed duration and
/// summed self time (duration minus direct children).
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// Alternating traced/untraced slices: in a traced run the window is cut
/// into kSliceNs slices, odd ones traced (benchmark spans on, program
/// tracer on), so tracing overhead is measured against interleaved
/// untraced slices under the same host conditions.
constexpr uint64_t kSliceNs = 250'000'000;
bool TracedSlice(bool trace_run, uint64_t window_begin_ns, uint64_t now_ns) {
  return trace_run && ((now_ns - window_begin_ns) / kSliceNs) % 2 == 1;
}

/// The request-class view used by the "percentile lies inside a class"
/// self-check: the class of the sample at the percentile's rank, the
/// quantile of that value within its own class, and the latencies at the
/// ranks 0.2% of the samples (at least 3) below and above it.
struct ClassPosition {
  uint32_t cls = 0;
  double quantile_in_class = 0;
  uint64_t low_ns = 0;
  uint64_t high_ns = 0;
};

/// Names and units of every metric, as BENCHMARK.json lists them.
struct MetricDef {
  const char* name;
  const char* unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of `sorted` (ascending) for q in (0, 1].
uint64_t Percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

/// Millions of iterations per second of a fixed integer loop.
double SpinRate() {
  constexpr uint64_t kIterations = 20'000'000;
  uint64_t x = 88172645463325252ull;
  const uint64_t begin = NowNs();
  for (uint64_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const uint64_t elapsed = NowNs() - begin;
  asm volatile("" : : "r"(x));  // keep the loop
  return kIterations / (elapsed / 1e9) / 1e6;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

void Sig::AddInt(uint64_t v) {
  hash = (hash ^ v) * 0x100000001b3ull;
  hash ^= hash >> 29;
}

void Sig::AddString(std::string_view s) {
  for (unsigned char c : s) hash = (hash ^ c) * 0x100000001b3ull;
  AddInt(s.size());
}

// ---------------------------------------------------------------------------
// Spans.

int32_t SpanLog::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  spans_[index].end_ns = NowNs();
  stack_.pop_back();
}

namespace {

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint64_t dur = spans[i].end_ns - spans[i].start_ns;
      SpanTotals& totals = out[spans[i].name];
      ++totals.count;
      totals.total_ns += dur;
      totals.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
  }
  return out;
}

uint64_t RootCoverageNs(const SpanLog& log, uint64_t begin_ns,
                        uint64_t end_ns) {
  uint64_t covered = 0;
  uint64_t reach = begin_ns;  // roots of one thread never overlap
  for (const Span& span : log.spans()) {
    if (span.parent >= 0) continue;
    const uint64_t lo = std::max({span.start_ns, begin_ns, reach});
    const uint64_t hi = std::min(span.end_ns, end_ns);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered;
}

}  // namespace

void WriteTrace(const Args& args, std::vector<const SpanLog*> logs,
                const Window& window) {
  if (!args.trace) return;
  for (const auto& log : window.logs) logs.push_back(log.get());
  const std::string path = args.scratch + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  uint64_t epoch = UINT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      epoch = std::min(epoch, span.start_ns);
    }
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    std::fprintf(f, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, logs[tid]->label().c_str());
    first = false;
    for (const Span& span : logs[tid]->spans()) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu64
                   ",\"parent\":%d}}",
                   span.name, tid, (span.start_ns - epoch) / 1e3,
                   (span.end_ns - span.start_ns) / 1e3, span.request,
                   span.parent);
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Oracle.

namespace {

int KindCode(natix::dom::NodeKind kind) { return static_cast<int>(kind); }

void ShapeDom(const natix::dom::Node* node, Sig* sig) {
  sig->AddInt(KindCode(node->kind));
  sig->AddString(node->name);
  ++sig->count;
  for (const natix::dom::Node* attr : node->attributes) ShapeDom(attr, sig);
  for (const natix::dom::Node* child : node->children) ShapeDom(child, sig);
}

/// Mirrors xml::OuterXml (the served xml mode) over the DOM.
void OuterXmlDom(const natix::dom::Node* node, std::string* out) {
  using natix::dom::NodeKind;
  switch (node->kind) {
    case NodeKind::kDocument:
      for (const auto* child : node->children) OuterXmlDom(child, out);
      return;
    case NodeKind::kElement:
      *out += "<" + node->name;
      for (const auto* attr : node->attributes) {
        *out += " " + attr->name + "=\"" +
                natix::xml::EscapeAttribute(attr->value) + "\"";
      }
      if (node->children.empty()) {
        *out += "/>";
        return;
      }
      *out += ">";
      for (const auto* child : node->children) OuterXmlDom(child, out);
      *out += "</" + node->name + ">";
      return;
    case NodeKind::kAttribute:
      *out += node->name + "=\"" + natix::xml::EscapeAttribute(node->value) +
              "\"";
      return;
    case NodeKind::kText:
      *out += natix::xml::EscapeText(node->value);
      return;
    case NodeKind::kComment:
      *out += "<!--" + node->value + "-->";
      return;
    case NodeKind::kProcessingInstruction:
      *out += "<?" + node->name +
              (node->value.empty() ? "" : " " + node->value) + "?>";
      return;
  }
}

std::string ObjectString(const natix::interp::Object& object) {
  using Kind = natix::interp::Object::Kind;
  switch (object.kind) {
    case Kind::kBoolean:
      return object.boolean ? "true" : "false";
    case Kind::kNumber:
      return natix::XPathNumberToString(object.number);
    case Kind::kString:
      return object.string;
    case Kind::kNodeSet:
      return object.nodes.empty() ? "" : object.nodes[0]->StringValue();
  }
  return "";
}

OracleAnswer Answer(const natix::dom::Document* doc, const OracleQuery& q) {
  OracleAnswer answer;
  natix::StatusOr<natix::interp::Object> result =
      natix::interp::Evaluator::Run(doc, q.xpath, doc->root(),
                                    natix::interp::EvaluatorOptions());
  if (!result.ok()) return answer;
  answer.ok = true;
  answer.node_set = result->kind == natix::interp::Object::Kind::kNodeSet;
  if (!answer.node_set) {
    answer.sig.count = 1;
    answer.sig.AddString(ObjectString(*result));
    return answer;
  }
  const std::vector<const natix::dom::Node*>& nodes = result->nodes;
  const size_t n = q.limit == 0 ? nodes.size()
                                : std::min<size_t>(q.limit, nodes.size());
  answer.sig.count = n;
  for (size_t i = 0; i < n; ++i) {
    switch (q.mode) {
      case OracleMode::kNodeRanks:
        answer.ranks.push_back(nodes[i]->order);
        break;
      case OracleMode::kValues:
        answer.sig.AddString(nodes[i]->StringValue());
        break;
      case OracleMode::kXml: {
        std::string xml;
        OuterXmlDom(nodes[i], &xml);
        answer.sig.AddString(xml);
        break;
      }
      case OracleMode::kCount:
        break;
    }
  }
  return answer;
}

void Put(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool Take(std::string_view* in, uint64_t* v) {
  if (in->size() < sizeof(*v)) return false;
  std::memcpy(v, in->data(), sizeof(*v));
  in->remove_prefix(sizeof(*v));
  return true;
}

bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

/// The child's side: evaluates everything and encodes the answers.
std::string OracleChild(const std::vector<const std::string*>& docs,
                        const std::vector<OracleQuery>& queries) {
  std::string out;
  std::vector<std::unique_ptr<natix::dom::Document>> doms;
  for (const std::string* xml : docs) {
    auto parsed = natix::dom::ParseDocument(*xml);
    if (!parsed.ok()) return std::string();
    Sig shape;
    ShapeDom((*parsed)->root(), &shape);
    Put(&out, (*parsed)->size());
    Put(&out, shape.hash);
    doms.push_back(std::move(*parsed));
  }
  for (const OracleQuery& q : queries) {
    OracleAnswer a = Answer(doms[q.doc].get(), q);
    Put(&out, a.ok);
    Put(&out, a.node_set);
    Put(&out, a.sig.count);
    Put(&out, a.sig.hash);
    Put(&out, a.ranks.size());
    for (uint64_t r : a.ranks) Put(&out, r);
  }
  return out;
}

}  // namespace

bool RunOracle(const std::vector<const std::string*>& docs,
               const std::vector<OracleQuery>& queries,
               std::vector<OracleAnswer>* answers,
               std::vector<OracleDocInfo>* docs_info) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::close(fds[0]);
    const bool ok = WriteAll(fds[1], OracleChild(docs, queries));
    ::close(fds[1]);
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;

  std::string_view in(data);
  docs_info->assign(docs.size(), OracleDocInfo());
  for (OracleDocInfo& info : *docs_info) {
    if (!Take(&in, &info.nodes) || !Take(&in, &info.shape_hash)) return false;
  }
  answers->assign(queries.size(), OracleAnswer());
  for (OracleAnswer& a : *answers) {
    uint64_t ok = 0, node_set = 0, n = 0;
    if (!Take(&in, &ok) || !Take(&in, &node_set) || !Take(&in, &a.sig.count) ||
        !Take(&in, &a.sig.hash) || !Take(&in, &n)) {
      return false;
    }
    a.ok = ok != 0;
    a.node_set = node_set != 0;
    a.ranks.resize(n);
    for (uint64_t& r : a.ranks) {
      if (!Take(&in, &r)) return false;
    }
  }
  return in.empty();
}

namespace {

bool WalkStore(const StoredNode& node, Sig* shape,
               std::vector<uint64_t>* table) {
  auto kind = node.kind();
  auto name = node.name();
  if (!kind.ok() || !name.ok()) return false;
  table->push_back(node.id().Pack());
  shape->AddInt(static_cast<int>(*kind));
  shape->AddString(*name);
  ++shape->count;
  if (*kind != natix::storage::StoredNodeKind::kElement &&
      *kind != natix::storage::StoredNodeKind::kDocument) {
    return true;
  }
  auto attr = node.first_attribute();
  while (attr.ok() && attr->valid()) {
    if (!WalkStore(*attr, shape, table)) return false;
    attr = attr->next_sibling();
  }
  if (!attr.ok()) return false;
  auto child = node.first_child();
  while (child.ok() && child->valid()) {
    if (!WalkStore(*child, shape, table)) return false;
    child = child->next_sibling();
  }
  return child.ok();
}

}  // namespace

bool RankTable(const Database& db, std::string_view doc,
               const OracleDocInfo& expected, std::vector<uint64_t>* table) {
  auto root = db.Root(doc);
  if (!root.ok()) return false;
  table->clear();
  Sig shape;
  if (!WalkStore(*root, &shape, table)) return false;
  return shape.count == expected.nodes && shape.hash == expected.shape_hash;
}

Sig NodeIdSig(const std::vector<uint64_t>& ranks,
              const std::vector<uint64_t>& table) {
  Sig sig;
  sig.count = ranks.size();
  for (uint64_t r : ranks) sig.AddInt(r < table.size() ? table[r] : ~0ull);
  return sig;
}

const natix::Status kNotRun = natix::Status::Internal("not run");

bool EvaluateSig(natix::PreparedQuery::Execution* execution, bool node_set,
                 natix::storage::NodeId context, Sig* sig, SpanLog* log,
                 uint64_t request) {
  *sig = Sig();
  if (node_set) {
    natix::StatusOr<std::vector<StoredNode>> nodes = kNotRun;
    {
      SpanScope span(log, "api.EvaluateNodes", request);
      nodes = execution->EvaluateNodes(context, /*document_order=*/true);
    }
    if (!nodes.ok()) return false;
    SpanScope span(log, "bench.check", request);
    sig->count = nodes->size();
    for (const StoredNode& node : *nodes) sig->AddInt(node.id().Pack());
    return true;
  }
  natix::StatusOr<std::string> value = kNotRun;
  {
    SpanScope span(log, "api.EvaluateString", request);
    value = execution->EvaluateString(context);
  }
  if (!value.ok()) return false;
  sig->count = 1;
  sig->AddString(*value);
  return true;
}

namespace {

/// Parses the JSON string starting at body[*pos] == '"'.
bool JsonString(std::string_view body, size_t* pos, std::string* out) {
  out->clear();
  if (*pos >= body.size() || body[*pos] != '"') return false;
  for (size_t i = *pos + 1; i < body.size(); ++i) {
    char c = body[i];
    if (c == '"') {
      *pos = i + 1;
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= body.size()) return false;
    switch (body[i]) {
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (i + 4 >= body.size()) return false;
        const unsigned code = static_cast<unsigned>(
            std::strtoul(std::string(body.substr(i + 1, 4)).c_str(),
                         nullptr, 16));
        if (code >= 0x80) return false;  // the server escapes only < 0x20
        out->push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default: out->push_back(body[i]);
    }
  }
  return false;
}

bool JsonUint(std::string_view body, std::string_view key, uint64_t* v) {
  size_t at = body.find(key);
  if (at == std::string_view::npos) return false;
  *v = std::strtoull(std::string(body.substr(at + key.size(), 24)).c_str(),
                     nullptr, 10);
  return true;
}

}  // namespace

bool ParseQueryBody(std::string_view body, Sig* sig, uint64_t* page_faults) {
  *sig = Sig();
  // Everything the signature needs follows the echoed request fields.
  size_t mode = body.find(",\"mode\":\"");
  if (mode == std::string_view::npos) return false;
  std::string_view rest = body.substr(mode);
  if (!JsonUint(rest, "\"page_faults\":", page_faults)) return false;
  size_t at = rest.find("\"value\":");
  if (at != std::string_view::npos) {
    size_t pos = at + 8;
    std::string value;
    if (!JsonString(rest, &pos, &value)) return false;
    sig->count = 1;
    sig->AddString(value);
    return true;
  }
  if (!JsonUint(rest, "\"count\":", &sig->count)) return false;
  at = rest.find("\"results\":[");
  if (at == std::string_view::npos) return true;  // mode=count
  size_t pos = at + 11;
  std::string value;
  uint64_t n = 0;
  while (pos < rest.size() && rest[pos] != ']') {
    if (rest[pos] == ',') ++pos;
    if (!JsonString(rest, &pos, &value)) return false;
    sig->AddString(value);
    ++n;
  }
  return n == sig->count;
}

// ---------------------------------------------------------------------------
// Set-ups, host probe, process facts.

Instance::~Instance() {
  if (server != nullptr) server->Shutdown();
  server.reset();
  plans.clear();
  db.reset();
  if (!path.empty()) ::unlink(path.c_str());
}

namespace {

/// One pass of the program's pull parser over `xml` (all events).
bool ReaderPass(const std::string& xml) {
  natix::xml::Reader reader(xml);
  natix::xml::Reader::Event event;
  for (;;) {
    if (!reader.Next(&event).ok()) return false;
    if (event.kind == natix::xml::EventKind::kEndDocument) return true;
  }
}

}  // namespace

namespace {

/// One timed fresh set-up into a new scratch store numbered `number`.
/// Appends its time to report->samples and its load time per XML byte to
/// `load_samples`; null on failure.
std::unique_ptr<Instance> TimedSetup(const Args& args,
                                     const std::vector<Corpus>& corpora,
                                     const Database::Options& options,
                                     const AfterLoad& after_load,
                                     SpanLog* span_log, int number,
                                     SetupReport* report,
                                     std::vector<double>* load_samples) {
  uint64_t xml_bytes = 0;
  for (const Corpus& c : corpora) xml_bytes += c.xml.size();
  auto instance = std::make_unique<Instance>();
  instance->path = args.scratch + "/store-" + args.workload + "-" +
                   std::to_string(::getpid()) + "-" + std::to_string(number) +
                   ".natix";
  uint64_t load_ns = 0;
  const uint64_t begin = NowNs();
  {
    SpanScope setup_span(span_log, "bench.setup");
    auto db = Database::Create(instance->path, options);
    if (!db.ok()) {
      std::fprintf(stderr, "create %s: %s\n", instance->path.c_str(),
                   db.status().ToString().c_str());
      return nullptr;
    }
    instance->db = std::move(*db);
    for (const Corpus& c : corpora) {
      SpanScope span(span_log, "api.LoadDocument");
      const uint64_t t0 = NowNs();
      auto info = instance->db->LoadDocument(c.name, c.xml);
      load_ns += NowNs() - t0;
      if (!info.ok()) {
        std::fprintf(stderr, "load %s: %s\n", c.name.c_str(),
                     info.status().ToString().c_str());
        return nullptr;
      }
    }
    if (!after_load(instance.get(), span_log)) return nullptr;
  }
  report->samples.push_back((NowNs() - begin) / 1e9);
  if (load_samples != nullptr) {
    load_samples->push_back(static_cast<double>(load_ns) / xml_bytes);
  }
  return instance;
}

}  // namespace

std::unique_ptr<Instance> FreshSetups(
    const Args& args, const std::vector<Corpus>& corpora,
    const Database::Options& options, int repeats,
    const AfterLoad& after_load, SpanLog* log, SetupReport* report) {
  uint64_t xml_bytes = 0;
  for (const Corpus& c : corpora) xml_bytes += c.xml.size();
  report->rss_baseline_bytes = ResetPeakRss();
  if (report->rss_baseline_bytes == 0) {
    std::fprintf(stderr, "cannot reset the resident high-water mark "
                         "(/proc/self/clear_refs)\n");
    return nullptr;
  }
  std::vector<double> parse_samples, load_samples;
  std::unique_ptr<Instance> instance;
  for (int r = 0; r < repeats; ++r) {
    instance.reset();  // the previous set-up is torn down untimed

    const uint64_t parse_begin = NowNs();
    for (const Corpus& c : corpora) {
      if (!ReaderPass(c.xml)) return nullptr;
    }
    parse_samples.push_back(static_cast<double>(NowNs() - parse_begin) /
                            xml_bytes);

    const bool last = r + 1 == repeats;
    instance = TimedSetup(args, corpora, options, after_load,
                          last ? log : nullptr, r, report, &load_samples);
    if (instance == nullptr) return nullptr;
  }
  struct stat st;
  if (::stat(instance->path.c_str(), &st) != 0) return nullptr;
  if (log != nullptr) {
    const SpanTotals prepare = SummarizeSpans({log})["api.Prepare"];
    if (prepare.count > 0) {
      report->prepare_ns = static_cast<double>(prepare.total_ns) / prepare.count;
    }
  }
  report->parse_ns_per_byte = Median(parse_samples);
  report->load_ns_per_byte = Median(load_samples);
  report->store_bytes_per_xml_byte =
      static_cast<double>(st.st_size) / xml_bytes;
  return instance;
}

bool SideSetup(const Args& args, const std::vector<Corpus>& corpora,
               const Database::Options& options, const AfterLoad& after_load,
               SetupReport* report) {
  const int number = static_cast<int>(report->samples.size());
  return TimedSetup(args, corpora, options, after_load, nullptr, number,
                    report, nullptr) != nullptr;
}

std::vector<uint16_t> DeckSequence(const std::vector<uint32_t>& weights,
                                   uint64_t seed, size_t length) {
  std::vector<uint16_t> block;
  for (size_t i = 0; i < weights.size(); ++i) {
    block.insert(block.end(), weights[i], static_cast<uint16_t>(i));
  }
  std::mt19937_64 rng(seed);
  std::vector<uint16_t> out;
  out.reserve(length + block.size());
  while (out.size() < length) {
    std::shuffle(block.begin(), block.end(), rng);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(length);
  return out;
}

namespace {

/// A "<key>   <n> kB" line of /proc/self/status, in bytes; 0 if absent.
uint64_t StatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  const size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
      kb = std::strtoull(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace

uint64_t ResetPeakRss() {
  // Return free heap pages first, so that memory the benchmark freed
  // while building its inputs is not resident at the baseline, where the
  // program could reuse it without it being counted.
  ::malloc_trim(0);
  // "5" resets the high-water mark to the current resident set (proc(5)).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return 0;
  const bool written = std::fputs("5", f) >= 0;
  if (std::fclose(f) != 0 || !written) return 0;
  return StatusKb("VmRSS");
}

uint64_t PeakRssBytes() { return StatusKb("VmHWM"); }

double ProgramPeakRssMb(const SetupReport& setup, const Window& window) {
  const uint64_t peak = window.peak_rss_bytes;
  const uint64_t base = setup.rss_baseline_bytes;
  return peak > base ? static_cast<double>(peak - base) / (1 << 20) : 0;
}

void ProgramTrace::Poll(bool traced) {
  if (traced && !active_) {
    natix::obs::Tracer::Global().Start();
    active_ = true;
  } else if (!traced && active_) {
    Collect();
  }
}

void ProgramTrace::Collect() {
  std::vector<natix::obs::TraceEvent> events =
      natix::obs::Tracer::Global().Stop();
  events_.insert(events_.end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
  active_ = false;
}

SampleBuffers MakeSampleBuffers(const Args& args, int clients,
                                double max_qps_per_client) {
  const size_t capacity =
      static_cast<size_t>(args.seconds * max_qps_per_client) + 1024;
  SampleBuffers buffers(clients);
  for (std::vector<Sample>& buffer : buffers) {
    buffer.resize(capacity);  // writes every page
    buffer.clear();           // keeps the capacity
  }
  return buffers;
}

Window RunWindow(const Args& args, SampleBuffers buffers,
                 const RequestFn& request, ProgramTrace* program_trace,
                 const std::function<bool()>& interlude) {
  Window window;
  const int clients = static_cast<int>(buffers.size());
  window.clients = clients;
  for (int c = 0; c < clients; ++c) {
    window.logs.push_back(
        std::make_unique<SpanLog>("client-" + std::to_string(c)));
  }
  const uint64_t request_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t period_ns = static_cast<uint64_t>(kPeriodSeconds * 1e9);
  std::atomic<uint64_t> next_seq{0};
  uint64_t peak_rss = 0;
  // Written only by the barrier's completion, while every client waits.
  uint64_t requested_ns = 0;
  uint64_t period_end_ns = 0;
  bool done = false;
  auto start_period = [&] {
    const uint64_t now = NowNs();
    window.periods.push_back({now, 0});
    period_end_ns = now + std::min(period_ns, request_ns - requested_ns);
  };
  // Runs once all clients have stopped at the end of a period.
  auto end_period = [&]() noexcept {
    Window::Period& period = window.periods.back();
    period.end_ns = NowNs();
    requested_ns += period.end_ns - period.begin_ns;
    done = requested_ns >= request_ns;
    if (!done && interlude && !args.trace) {
      // The interlude's memory is not the window's: keep the high-water
      // mark so far, and restart it once the interlude is torn down.
      peak_rss = std::max(peak_rss, PeakRssBytes());
      window.interludes_ok = interlude() && window.interludes_ok;
      ResetPeakRss();
    }
    if (!done) start_period();
  };
  std::barrier sync(clients, end_period);

  window.spin_rate_before = SpinRate();
  window.begin_ns = NowNs();
  start_period();
  auto client_loop = [&](int c) {
    SpanLog* log = window.logs[c].get();
    std::vector<Sample>& mine = buffers[c];
    for (;;) {
      const uint64_t now = NowNs();
      if (now >= period_end_ns) {
        log->on = false;
        sync.arrive_and_wait();
        if (done) break;
        continue;
      }
      Sample sample;
      sample.client = static_cast<uint32_t>(c);
      sample.period = static_cast<uint32_t>(window.periods.size() - 1);
      sample.traced = TracedSlice(args.trace, window.begin_ns, now);
      log->on = sample.traced;
      const uint64_t seq = next_seq.fetch_add(1, std::memory_order_relaxed);
      sample.start_ns = NowNs();
      {
        SpanScope span(log, "bench.request", seq);
        request(c, seq, log, &sample);
      }
      sample.latency_ns = NowNs() - sample.start_ns;
      mine.push_back(sample);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  // The coordinator flips the program's tracer at slice boundaries; a
  // traced run has no interludes, so its periods run back to back.
  const uint64_t trace_end_ns = window.begin_ns + request_ns;
  while (args.trace && NowNs() < trace_end_ns) {
    const uint64_t now = NowNs();
    program_trace->Poll(TracedSlice(true, window.begin_ns, now));
    const uint64_t into = (now - window.begin_ns) % kSliceNs;
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min(kSliceNs - into, trace_end_ns - now)));
  }
  for (std::thread& t : threads) t.join();
  window.end_ns = NowNs();
  window.peak_rss_bytes = std::max(peak_rss, PeakRssBytes());
  window.spin_rate_after = SpinRate();
  if (args.trace) program_trace->Poll(false);
  if (clients == 1) {
    window.samples = std::move(buffers[0]);
  } else {
    for (const std::vector<Sample>& mine : buffers) {
      window.samples.insert(window.samples.end(), mine.begin(), mine.end());
    }
  }
  return window;
}

uint64_t Grade(std::vector<Sample>* samples, const std::vector<Sig>& expected) {
  uint64_t correct = 0;
  for (Sample& s : *samples) {
    s.ok = s.ok && s.item < expected.size() && s.sig == expected[s.item];
    correct += s.ok;
  }
  return correct;
}

// ---------------------------------------------------------------------------
// Report.

namespace {

ClassPosition LocatePercentile(const std::vector<Sample>& samples,
                               double q) {
  std::vector<const Sample*> sorted;
  for (const Sample& s : samples) {
    if (!s.traced) sorted.push_back(&s);
  }
  ClassPosition pos;
  if (sorted.empty()) return pos;
  std::sort(sorted.begin(), sorted.end(), [](const Sample* a, const Sample* b) {
    return a->latency_ns < b->latency_ns;
  });
  const size_t n = sorted.size();
  const size_t rank =
      std::clamp<size_t>(static_cast<size_t>(std::ceil(q * n)), 1, n) - 1;
  const Sample* at = sorted[rank];
  pos.cls = at->cls;
  uint64_t in_class = 0, below = 0;
  for (const Sample* s : sorted) {
    if (s->cls != at->cls) continue;
    ++in_class;
    if (s->latency_ns <= at->latency_ns) ++below;
  }
  pos.quantile_in_class = static_cast<double>(below) / in_class;
  const size_t reach = std::max<size_t>(3, n / 500);
  pos.low_ns = sorted[rank >= reach ? rank - reach : 0]->latency_ns;
  pos.high_ns = sorted[std::min(n - 1, rank + reach)]->latency_ns;
  return pos;
}

}  // namespace

namespace {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"ok_ratio", "ratio"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"store_bytes_per_xml_byte", "ratio"},
  };
  return defs;
}

const std::vector<std::string>& OperatorKinds() {
  static const std::vector<std::string> kinds = {
      "UnnestMap", "Select", "Map",   "Counter",  "DupElim",
      "Sort",      "TmpCs",  "MemoX", "Aggregate", "NestedAgg",
      "Limit",     "Concat", "other"};
  return kinds;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"xml.parse_ns_per_byte", "ns/B"},
        {"storage.load_ns_per_byte", "ns/B"},
        {"api.prepare_ns", "ns"},
        {"api.exec_ns", "ns"},
        {"api.new_execution_ns", "ns"},
        {"api.plan_cache_hit_ratio", "ratio"},
        {"api.prepare_share", "ratio"},
        {"compile.parse_ns", "ns"},
        {"compile.sema_ns", "ns"},
        {"compile.fold_ns", "ns"},
        {"compile.normalize_ns", "ns"},
        {"compile.translate_ns", "ns"},
        {"compile.rewrite_ns", "ns"},
        {"compile.verify_ns", "ns"},
        {"compile.codegen_ns", "ns"},
        {"qe.exec_ns_per_step_tuple", "ns"},
        {"nvm.insns_per_request", "count"},
        {"storage.fixes_per_step_tuple", "ratio"},
        {"storage.hit_ratio", "ratio"},
        {"storage.faults_per_request", "count"},
        {"storage.evictions_per_request", "count"},
        {"server.exec_ns_mean", "ns"},
        {"server.queue_wait_ns_mean", "ns"},
        {"server.overhead_ns_mean", "ns"},
        {"server.response_bytes_per_request", "B"},
        {"server.rejected_ratio", "ratio"},
        {"serve.point_p50_ms", "ms"},
        {"serve.page_p50_ms", "ms"},
        {"serve.lookup_p50_ms", "ms"},
        {"serve.scan_p50_ms", "ms"},
        {"bench.self_ns_per_request", "ns"},
        {"trace.coverage", "ratio"},
        {"trace.overhead", "ratio"},
        {"trace.qps_untraced", "1/s"},
        {"trace.qps_traced", "1/s"},
        {"host.spin_rate_before", "Mit/s"},
        {"host.spin_rate_after", "Mit/s"},
    };
    static std::vector<std::string> names;
    names.reserve(OperatorKinds().size());
    for (const std::string& kind : OperatorKinds()) {
      names.push_back("qe.self_ns." + kind);
    }
    for (const std::string& name : names) d.push_back({name.c_str(), "ns"});
    return d;
  }();
  return defs;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Report::Check(bool ok, const std::string& what) {
  checks_.push_back(std::string(ok ? "ok    " : "FAILED") + "  " + what);
  if (!ok) checks_ok_ = false;
}

void Report::Diagnostic(const std::string& name, double value,
                        const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  diagnostics_.emplace_back(name, std::string(buf) + " " + unit);
  Set(name, value);
}

void Report::WindowMetrics(const Window& window,
                           const std::vector<std::string>& class_names) {
  std::vector<uint64_t> latencies;
  uint64_t correct = 0, correct_untraced = 0, correct_traced = 0;
  double busy_untraced_ns = 0, busy_traced_ns = 0;
  std::vector<uint64_t> period_correct(window.periods.size(), 0);
  for (const Sample& s : window.samples) {
    correct += s.ok;
    period_correct[s.period] += s.ok;
    if (s.traced) {
      correct_traced += s.ok;
      busy_traced_ns += s.latency_ns;
    } else {
      latencies.push_back(s.latency_ns);
      correct_untraced += s.ok;
      busy_untraced_ns += s.latency_ns;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  // Correct responses per second of each request period, to tell a host
  // that changed speed within the run from a steady one.
  uint64_t request_ns = 0;
  std::string rates;
  for (size_t p = 0; p < window.periods.size(); ++p) {
    const Window::Period& period = window.periods[p];
    request_ns += period.end_ns - period.begin_ns;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.0f", p > 0 ? " " : "",
                  period_correct[p] / ((period.end_ns - period.begin_ns) / 1e9));
    rates += buf;
  }
  Diagnostic("host.spin_rate_before", window.spin_rate_before, "Mit/s");
  Diagnostic("host.spin_rate_after", window.spin_rate_after, "Mit/s");
  diagnostics_.emplace_back("period_qps", rates);
  Set("qps", request_ns > 0 ? correct / (request_ns / 1e9) : 0);
  Set("latency_p50_ms", Percentile(latencies, 0.50) / 1e6);
  Set("latency_p99_ms", Percentile(latencies, 0.99) / 1e6);
  Set("ok_ratio", window.samples.empty()
                      ? 0
                      : static_cast<double>(correct) / window.samples.size());
  Diagnostic("latency_samples", static_cast<double>(latencies.size()),
             "count");
  std::vector<std::vector<uint64_t>> by_class(class_names.size());
  for (const Sample& s : window.samples) {
    if (!s.traced) by_class[s.cls].push_back(s.latency_ns);
  }
  for (size_t c = 0; c < class_names.size(); ++c) {
    std::sort(by_class[c].begin(), by_class[c].end());
    class_p50_ms_[class_names[c]] = Percentile(by_class[c], 0.50) / 1e6;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%zu requests, p50 %.4f ms",
                  by_class[c].size(), class_p50_ms_[class_names[c]]);
    diagnostics_.emplace_back("class " + class_names[c], buf);
  }
  for (double q : {0.50, 0.99}) {
    // A percentile in a gap between classes jumps between runs; inside a
    // class its neighbouring ranks hold nearly the same latency.
    ClassPosition pos = LocatePercentile(window.samples, q);
    const double spread =
        pos.low_ns > 0 ? static_cast<double>(pos.high_ns) / pos.low_ns : 0;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "p%.0f lies inside class %s (its %.2f quantile; ranks "
                  "+-0.2%% span %.3f-%.3f ms)",
                  q * 100, class_names[pos.cls].c_str(),
                  pos.quantile_in_class, pos.low_ns / 1e6,
                  pos.high_ns / 1e6);
    Check(spread > 0 && spread <= 1.5, buf);
  }
  if (!args_.trace) {
    Check(latencies.size() >= 1000,
          "at least 1000 requests in the window (" +
              std::to_string(latencies.size()) + ")");
    Check(window.interludes_ok, "every interlude's set-up succeeded");
    return;
  }

  // Slices alternate, so each kind is rated by the client time it kept
  // busy, which the closed loop fills.
  auto rate = [&](uint64_t n, double busy_ns) {
    return busy_ns > 0 ? n / (busy_ns / 1e9 / window.clients) : 0.0;
  };
  const double qps_untraced = rate(correct_untraced, busy_untraced_ns);
  const double qps_traced = rate(correct_traced, busy_traced_ns);
  Set("trace.qps_untraced", qps_untraced);
  Set("trace.qps_traced", qps_traced);
  Set("trace.overhead", qps_untraced > 0 ? 1 - qps_traced / qps_untraced : 0);

  // Coverage: the share of each client's traced time that its root spans
  // account for. A traced request owns the client's time from its start
  // to the start of the client's next request (or the window's end).
  uint64_t traced_ns = 0;
  for (size_t i = 0; i < window.samples.size(); ++i) {
    const Sample& s = window.samples[i];
    if (!s.traced) continue;
    const bool last = i + 1 == window.samples.size() ||
                      window.samples[i + 1].client != s.client;
    traced_ns += (last ? window.end_ns : window.samples[i + 1].start_ns) -
                 s.start_ns;
  }
  uint64_t covered = 0;
  for (const auto& log : window.logs) {
    covered += RootCoverageNs(*log, window.begin_ns, window.end_ns);
  }
  const double coverage =
      traced_ns > 0 ? static_cast<double>(covered) / traced_ns : 0;
  Set("trace.coverage", coverage);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "spans cover at least 0.9 of the traced time (%.3f)",
                coverage);
  Check(coverage >= 0.9, buf);

  std::vector<const SpanLog*> logs;
  for (const auto& log : window.logs) logs.push_back(log.get());
  std::map<std::string, SpanTotals> totals = SummarizeSpans(logs);
  auto mean = [&](std::initializer_list<const char*> names) {
    uint64_t n = 0, ns = 0;
    for (const char* name : names) {
      n += totals[name].count;
      ns += totals[name].total_ns;
    }
    return n > 0 ? static_cast<double>(ns) / n : 0.0;
  };
  const SpanTotals& requests = totals["bench.request"];
  if (totals["api.Prepare"].count > 0) {
    Set("api.prepare_ns", mean({"api.Prepare"}));
  }
  Set("api.exec_ns", mean({"api.EvaluateNodes", "api.EvaluateString"}));
  Set("api.new_execution_ns", mean({"api.NewExecution"}));
  Set("api.prepare_share",
      requests.total_ns > 0
          ? static_cast<double>(totals["api.Prepare"].total_ns) /
                requests.total_ns
          : 0);
  if (requests.count > 0) {
    Set("bench.self_ns_per_request",
        static_cast<double>(requests.self_ns + totals["bench.check"].self_ns) /
            requests.count);
  }
  uint64_t exec_ns = totals["api.EvaluateNodes"].total_ns +
                     totals["api.EvaluateString"].total_ns;
  uint64_t step_tuples = 0;
  for (const Sample& s : window.samples) {
    if (s.traced) step_tuples += s.work;
  }
  if (step_tuples > 0 && exec_ns > 0) {
    Set("qe.exec_ns_per_step_tuple",
        static_cast<double>(exec_ns) / step_tuples);
  }
}

void Report::SetupMetrics(const SetupReport& setup) {
  Set("setup_s", Median(setup.samples));
  std::string text;
  for (double s : setup.samples) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", text.empty() ? "" : " ", s * 1e3);
    text += buf;
  }
  diagnostics_.emplace_back("setup_samples_ms", text);
  Set("store_bytes_per_xml_byte", setup.store_bytes_per_xml_byte);
  Set("xml.parse_ns_per_byte", setup.parse_ns_per_byte);
  Set("storage.load_ns_per_byte", setup.load_ns_per_byte);
  if (setup.prepare_ns > 0) Set("api.prepare_ns", setup.prepare_ns);
}

double Report::PoolMetrics(
    const natix::storage::BufferManager::CounterSnapshot& before,
    const natix::storage::BufferManager::CounterSnapshot& after,
    size_t requests) {
  const uint64_t fixes =
      (after.hits + after.faults) - (before.hits + before.faults);
  const double hit_ratio =
      fixes > 0 ? static_cast<double>(after.hits - before.hits) / fixes : 0;
  Set("storage.hit_ratio", hit_ratio);
  Set("storage.faults_per_request",
      static_cast<double>(after.faults - before.faults) / requests);
  Set("storage.evictions_per_request",
      static_cast<double>(after.evictions - before.evictions) / requests);
  return hit_ratio;
}

void Report::CompilePhases(const std::vector<natix::obs::TraceEvent>& events) {
  std::map<std::string, uint64_t> phase_ns;
  uint64_t compiles = 0;
  for (const natix::obs::TraceEvent& e : events) {
    std::string_view name(e.name);
    if (name == "compile") ++compiles;
    if (name.substr(0, 8) == "compile/") phase_ns[std::string(name.substr(8))] += e.dur_ns;
  }
  if (compiles == 0) return;
  for (const char* phase : {"parse", "sema", "fold", "normalize", "translate",
                            "rewrite", "verify", "codegen"}) {
    Set(std::string("compile.") + phase + "_ns",
        static_cast<double>(phase_ns[phase]) / compiles);
  }
}

int Report::Finish(uint64_t attempted, uint64_t failed) {
  const std::vector<MetricDef>& defs =
      args_.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("# workload %s seed %" PRIu64 " (%s run, %.0f s window)\n",
              args_.workload.c_str(), args_.seed,
              args_.trace ? "traced" : "timed", args_.seconds);
  for (const MetricDef& def : defs) {
    std::printf("%-34s %14.6g %s\n", def.name, Get(def.name), def.unit);
  }
  for (const auto& [name, text] : diagnostics_) {
    std::printf("# diagnostic %-28s %s\n", name.c_str(), text.c_str());
  }
  for (const std::string& check : checks_) {
    std::printf("# self-check %s\n", check.c_str());
  }
  std::printf("# requests attempted %" PRIu64 " failed %" PRIu64 "\n",
              attempted, failed);
  if (!checks_ok_) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: workload %s no longer measures what it "
                 "claims (see '# self-check' lines)\n",
                 args_.workload.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", Get(def.name));
    json += std::string(first ? "" : ", ") + "\"" + def.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (failed > 0) return 1;
  return checks_ok_ ? 0 : 3;
}

namespace {

void AddOpTree(const natix::obs::OpStats* op,
               std::map<std::string, double>* by_kind) {
  std::string kind = op->label.substr(0, op->label.find('['));
  const std::vector<std::string>& kinds = OperatorKinds();
  if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
    kind = "other";
  }
  (*by_kind)[kind] += static_cast<double>(op->exclusive_ns());
  for (const natix::obs::OpStats* child : op->children) {
    AddOpTree(child, by_kind);
  }
}

}  // namespace

void CountingPass(size_t count, const natix::storage::BufferManager* pool,
                  const std::function<ExecutionOr(size_t, bool)>& run,
                  Report* report) {
  uint64_t fixes = 0, step_tuples = 0, nvm_insns = 0;
  std::map<std::string, double> self_ns;
  for (size_t i = 0; i < count; ++i) {
    const auto before = pool->Snapshot();
    ExecutionOr exec = run(i, false);
    const auto after = pool->Snapshot();
    fixes += (after.hits + after.faults) - (before.hits + before.faults);
    if (exec.ok()) {
      step_tuples += (*exec)->last_stats().step_tuples;
      nvm_insns += (*exec)->last_stats().nvm_insns;
    }
    ExecutionOr stats_exec = run(i, true);
    if (stats_exec.ok() && (*stats_exec)->Stats() != nullptr &&
        (*stats_exec)->Stats()->root() != nullptr) {
      AddOpTree((*stats_exec)->Stats()->root(), &self_ns);
    }
  }
  report->Set("nvm.insns_per_request", static_cast<double>(nvm_insns) / count);
  report->Set("storage.fixes_per_step_tuple",
              step_tuples > 0 ? static_cast<double>(fixes) / step_tuples : 0);
  for (const auto& [kind, ns] : self_ns) {
    report->Set("qe.self_ns." + kind, ns / count);
  }
}

}  // namespace perfbench
