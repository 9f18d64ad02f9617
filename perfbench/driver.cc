// perfbench driver: the closed-loop workloads of the FAME-DBMS benchmark.
//
// Every workload opens its product through the public core::Database facade
// (plus the repl:: Leader/Follower for replication), feeds it operations
// from a seeded generator only, checks every result against the generator's
// own record of what it wrote, and prints its metrics. Clients are callers
// that wait for each reply (a closed loop); the client count is printed.
// No product selects Observability, Tracing or FlightRecorder: the measured
// product is the one a user deploys. Counters come from Database::GetStats()
// read at phase boundaries (and around each new-key Put in a traced run).
//
//   perfbench_driver --workload kv_spill|sql_fit|txn_mixed|repl_ship
//                    --seed N --seconds S --trace 0|1 --dir WORKDIR
//                    [--spans FILE] [--scale F] [--wrong-expect]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (first an untraced half, then a traced half, so the tracing overhead is
// measured in the same process). The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --scale shrinks the data
// for self-tests; --wrong-expect corrupts every expected value so the
// self-test can prove the correctness checks fire.
//
// Exit codes: 0 ok, 2 a result did not match the generator, 3 set-up or
// open failed, 4 bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "core/database.h"
#include "core/sql.h"
#include "obs/serialize.h"
#include "repl/follower.h"
#include "repl/leader.h"
#include "repl/repl.h"

namespace {

namespace fs = std::filesystem;
using fame::Slice;
using fame::Status;
using fame::core::Database;
using fame::core::DbOptions;
using fame::obs::MetricsSnapshot;
using Clock = std::chrono::steady_clock;

constexpr int kExitMismatch = 2;
constexpr int kExitSetup = 3;
constexpr int kExitUsage = 4;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 9;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".";
  std::string spans;
  double scale = 1.0;
  bool wrong_expect = false;
};

Config g_cfg;

[[noreturn]] void Die(int code, const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(code);
}

void Require(const Status& s, const std::string& what) {
  if (!s.ok()) Die(kExitSetup, what + ": " + s.ToString());
}

template <typename T>
T Take(fame::StatusOr<T> v, const std::string& what) {
  if (!v.ok()) Die(kExitSetup, what + ": " + v.status().ToString());
  return std::move(v).value();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// ------------------------------------------------------------- generator

constexpr size_t kKeyBytes = 16;
constexpr size_t kValueBytes = 100;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string KeyOf(uint64_t i) {
  char b[32];
  std::snprintf(b, sizeof(b), "k%015llu", static_cast<unsigned long long>(i));
  return std::string(b, kKeyBytes);
}

/// The value the generator writes for key `i` at version `ver`; it names its
/// key so a scan row can be checked without knowing the version. With
/// --wrong-expect the expectation side asks for a version that was never
/// written, so every check must fail.
std::string ValueOf(uint64_t i, uint64_t ver) {
  char b[kValueBytes + 1];
  int n = std::snprintf(b, sizeof(b), "%015llu:%08llx:",
                        static_cast<unsigned long long>(i),
                        static_cast<unsigned long long>(ver));
  uint64_t h = Mix(i * 0x100000001b3ull + ver);
  for (size_t j = static_cast<size_t>(n); j < kValueBytes; ++j) {
    if ((j & 7) == 0) h = Mix(h);
    b[j] = static_cast<char>('a' + (h >> ((j & 7) * 8)) % 26);
  }
  return std::string(b, kValueBytes);
}

std::string ExpectedValue(uint64_t i, uint64_t ver) {
  return ValueOf(i, ver + (g_cfg.wrong_expect ? 1 : 0));
}

uint64_t ExpectedKeyInValue(uint64_t i) {
  return i + (g_cfg.wrong_expect ? 1 : 0);
}

/// Scrambled Zipf(theta) over [0, n): YCSB's generator, with ranks mapped
/// through a seeded permutation so hot keys spread over heap pages.
class Zipf {
 public:
  Zipf(uint64_t n, double theta, std::mt19937_64* rng)
      : n_(n), theta_(theta), perm_(n) {
    for (uint64_t i = 0; i < n; ++i) perm_[i] = i;
    std::shuffle(perm_.begin(), perm_.end(), *rng);
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
    double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) / (1.0 - zeta2 / zetan);
  }
  uint64_t Next(std::mt19937_64* rng) {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(double(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    return perm_[std::min(rank, n_ - 1)];
  }

 private:
  uint64_t n_;
  double theta_;
  std::vector<uint64_t> perm_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

uint64_t Uniform(std::mt19937_64* rng, uint64_t n) {
  return std::uniform_int_distribution<uint64_t>(0, n - 1)(*rng);
}

uint64_t Records() {
  return std::max<uint64_t>(400, static_cast<uint64_t>(20000 * g_cfg.scale));
}

// -------------------------------------------------------- result checking

/// A wrong answer ends the run (it is not a counted failure).
[[noreturn]] void Mismatch(const std::string& what) {
  Die(kExitMismatch, "correctness check failed: " + what);
}

/// Thread-safe first-mismatch latch for worker threads, which must be
/// joined before the process exits.
struct MismatchLatch {
  std::atomic<bool> hit{false};
  std::mutex mu;
  std::string what;
  void Set(const std::string& w) {
    std::lock_guard<std::mutex> l(mu);
    if (!hit.load()) what = w;
    hit.store(true);
  }
};

// ------------------------------------------------------- latency samples

/// Nearest-rank quantile, q in (0, 1]; NaN when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  size_t k = static_cast<size_t>(std::ceil(q * double(v.size()))) - 1;
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + long(k), v.end());
  return v[k];
}

/// A uniform sample of a stream of values in a buffer allocated and
/// touched up front: the driver's memory does not grow with the operation
/// rate, so peak_rss_mb measures the product rather than the driver.
class Reservoir {
 public:
  explicit Reservoir(size_t cap) : buf_(cap, 0.0f) {}
  void Put(float v) {
    ++seen_;
    if (kept_ < buf_.size()) {
      buf_[kept_++] = v;
    } else if (uint64_t j = rng_() % seen_; j < buf_.size()) {
      buf_[j] = v;
    }
  }
  void Clear() { kept_ = seen_ = 0; }
  void PutAll(const Reservoir& o) {
    for (size_t i = 0; i < o.kept_; ++i) Put(o.buf_[i]);
  }
  uint64_t seen() const { return seen_; }
  double Pct(double q) const {
    double v = Quantile(std::vector<double>(buf_.begin(),
                                            buf_.begin() + long(kept_)), q);
    // Widen through the float's shortest decimal form (34.787, not
    // 34.78699874877930).
    char b[32];
    auto r = std::to_chars(b, b + sizeof(b), static_cast<float>(v));
    return std::strtod(std::string(b, r.ptr).c_str(), nullptr);
  }

 private:
  std::vector<float> buf_;
  size_t kept_ = 0;
  uint64_t seen_ = 0;
  std::mt19937_64 rng_{0x5eed};
};

/// Measured phases are cut into windows of kWindowSec. Other tenants of a
/// shared host slow whole seconds at a time: on a shared 4-core Linux VM
/// the per-window point-SELECT p50 alternated between ~4.0 and ~6.5 us,
/// even with the driver pinned to one core and no steal time. So every
/// timing is taken per window and reported as its value in the fastest
/// tenth of windows: a run needs a tenth of quiet time to read true.
constexpr double kWindowSec = 0.5;
constexpr double kFastTenth = 0.1;

/// Latencies of one operation kind. A failed operation is an infinite
/// sample: it misses every percentile.
class Samples {
 public:
  Samples()
      : all_(size_t{1} << 19), win_(size_t{1} << 16), win99_(size_t{1} << 16) {}
  void Add(double us) {
    all_.Put(static_cast<float>(us));
    win_.Put(static_cast<float>(us));
    win99_.Put(static_cast<float>(us));
  }
  void AddFailed() { Add(std::numeric_limits<double>::infinity()); }
  void CloseWindow() {
    if (win_.seen() > 0) win_p50_.push_back(win_.Pct(0.50));
    win_.Clear();
    // A p99 needs ten samples beyond it: its window spans as many
    // consecutive windows as that takes.
    if (win99_.seen() >= 1000) {
      win_p99_.push_back(win99_.Pct(0.99));
      win99_.Clear();
    }
  }
  /// Pools another client's samples into this one.
  void Merge(const Samples& o) { all_.PutAll(o.all_); }
  uint64_t n() const { return all_.seen(); }
  /// Percentile over the whole run.
  double Pct(double q) const { return all_.Pct(q); }
  /// p50 / p99 of the fastest tenth of windows; the pooled value when
  /// fewer than four windows qualify.
  double P50() const { return Windowed(win_p50_, 0.50); }
  double P99() const { return Windowed(win_p99_, 0.99); }
  /// "min..max" of the per-window p50s: the noise within one run.
  std::string WindowRange() const {
    if (win_p50_.empty()) return "-";
    auto [lo, hi] = std::minmax_element(win_p50_.begin(), win_p50_.end());
    char b[64];
    std::snprintf(b, sizeof(b), "%.3f..%.3f", *lo, *hi);
    return b;
  }

 private:
  double Windowed(const std::vector<double>& w, double q) const {
    return w.size() < 4 ? Pct(q) : Quantile(w, kFastTenth);
  }

  Reservoir all_, win_, win99_;
  std::vector<double> win_p50_, win_p99_;
};

/// Operation counts of one measured phase. ops_per_s is the rate of the
/// fastest tenth of windows, for the same reason as Samples.
struct LoopOut {
  uint64_t ops = 0, failed = 0;
  double secs = 0;
  std::vector<double> rates;
  double Rate() const {
    return rates.size() < 4 ? double(ops) / secs
                            : Quantile(rates, 1.0 - kFastTenth);
  }
};

/// One closed-loop client: calls op() (false = the operation failed) until
/// `secs` elapse, closing a window of `samples` every kWindowSec.
template <typename Op>
LoopOut RunClosedLoop(double secs, const Op& op,
                      std::initializer_list<Samples*> samples) {
  LoopOut out;
  const uint64_t t0 = NowNs();
  const double windows = std::max(1.0, std::round(secs / kWindowSec));
  const uint64_t win_len = static_cast<uint64_t>(secs * 1e9 / windows);
  const uint64_t end = t0 + static_cast<uint64_t>(secs * 1e9);
  uint64_t win_t0 = t0, win_end = t0 + win_len, win_ops = 0;
  for (;;) {
    uint64_t now = NowNs();
    if (now >= win_end || now >= end) {
      out.rates.push_back(double(win_ops) * 1e9 / double(now - win_t0));
      for (Samples* s : samples) s->CloseWindow();
      win_ops = 0;
      win_t0 = now;
      win_end += win_len;
      if (now >= end) break;
    }
    if (!op()) ++out.failed;
    ++out.ops;
    ++win_ops;
  }
  out.secs = double(NowNs() - t0) / 1e9;
  return out;
}

// ---------------------------------------------------------------- tracing

/// Spans the driver records around its calls into each layer's public
/// functions. Names are the per-layer metric prefixes.
enum SpanName : uint16_t {
  kSpanDbGet,
  kSpanDbPut,
  kSpanDbFindRow,
  kSpanSqlExecute,
  kSpanSnapOpen,
  kSpanSnapSeek,
  kSpanSnapNext,
  kSpanTxBegin,
  kSpanTxPut,
  kSpanTxCommit,
  kSpanReplShip,
  kSpanReplApply,
  kSpanOpTxn,
  kSpanOpScan,
  kSpanOpInsert,
  kSpanOpRound,
  kSpanCount
};

const char* const kSpanNames[kSpanCount] = {
    "core.db.get",     "core.db.put",       "core.db.find_row",
    "core.sql.execute", "core.snapshot.open", "core.snapshot.seek",
    "core.snapshot.next", "tx.begin",        "tx.put",
    "tx.commit",       "repl.ship",         "repl.apply",
    "op.txn",          "op.scan",           "op.insert",
    "op.repl_round"};

struct Span {
  uint64_t start_ns;
  uint64_t dur_ns;
  uint32_t parent;  // 1-based slot of the parent span; 0 = root
  uint32_t trace;   // per-operation trace id (unique per thread)
  uint16_t name;
};

/// One per thread. Spans stay in memory until the run ends; past the cap
/// further spans are counted, not kept.
class Tracer {
 public:
  static constexpr size_t kCap = size_t{1} << 19;

  explicit Tracer(uint16_t tid) : tid_(tid) {}
  bool on() const { return on_; }
  void set_on(bool on) {
    on_ = on;
    if (on_) spans_.reserve(kCap);
  }
  uint16_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  uint32_t Open(SpanName name) {
    if (!on_) return 0;
    uint32_t parent = stack_.empty() ? 0 : stack_.back();
    if (parent == 0) ++trace_;
    if (spans_.size() >= kCap) {
      ++dropped_;
      stack_.push_back(0);
      return 0;
    }
    spans_.push_back({NowNs(), 0, parent, trace_, name});
    uint32_t slot = static_cast<uint32_t>(spans_.size());
    stack_.push_back(slot);
    return slot;
  }
  void Close(uint32_t slot) {
    stack_.pop_back();
    if (slot != 0) spans_[slot - 1].dur_ns = NowNs() - spans_[slot - 1].start_ns;
  }

 private:
  bool on_ = false;
  uint16_t tid_;
  uint32_t trace_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, SpanName name)
      : t_(t->on() ? t : nullptr), slot_(t_ ? t_->Open(name) : 0) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->Close(slot_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  uint32_t slot_;
};

/// Per-name span summary over every thread: count, median duration, and
/// total self time (duration minus the part covered by child spans).
struct SpanSummary {
  uint64_t count = 0;
  double p50_us = 0;
  double total_us = 0;
  double self_us = 0;
};

std::map<std::string, SpanSummary> Summarize(
    const std::vector<const Tracer*>& tracers) {
  std::vector<std::vector<double>> durs(kSpanCount);
  std::vector<double> self(kSpanCount, 0), total(kSpanCount, 0);
  for (const Tracer* t : tracers) {
    const auto& sp = t->spans();
    std::vector<uint64_t> child(sp.size(), 0);
    for (const Span& s : sp) {
      if (s.parent != 0) child[s.parent - 1] += s.dur_ns;
    }
    for (size_t i = 0; i < sp.size(); ++i) {
      durs[sp[i].name].push_back(Us(sp[i].dur_ns));
      total[sp[i].name] += Us(sp[i].dur_ns);
      self[sp[i].name] += Us(sp[i].dur_ns - std::min(child[i], sp[i].dur_ns));
    }
  }
  std::map<std::string, SpanSummary> out;
  for (size_t n = 0; n < kSpanCount; ++n) {
    if (durs[n].empty()) continue;
    out[kSpanNames[n]] = {durs[n].size(), Quantile(durs[n], 0.5), total[n],
                          self[n]};
  }
  return out;
}

/// Writes the first spans of every thread as Chrome trace-event JSON
/// (loadable in Perfetto). The per-layer numbers use every kept span.
void DumpSpans(const std::string& path,
               const std::vector<const Tracer*>& tracers) {
  constexpr size_t kDumpPerThread = 20000;
  std::ofstream f(path);
  if (!f) Die(kExitSetup, "cannot write span dump " + path);
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const Tracer* t : tracers) {
    const auto& sp = t->spans();
    for (size_t i = 0; i < sp.size() && i < kDumpPerThread; ++i) {
      char b[320];
      std::snprintf(b, sizeof(b),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%u,"
                    "\"span\":%zu,\"parent\":%u}}",
                    first ? "" : ",", kSpanNames[sp[i].name], t->tid(),
                    Us(sp[i].start_ns), Us(sp[i].dur_ns), sp[i].trace, i + 1,
                    sp[i].parent);
      f << b;
      first = false;
    }
  }
  f << "\n]}\n";
}

// -------------------------------------------------------- counters, files

MetricsSnapshot Stats(const Database& db) { return db.GetStats().metrics; }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Root-to-leaf B+-tree descents: point lookups/inserts/removes plus
/// cursor seeks (a snapshot cursor re-seeks on every Next).
double Descents(const MetricsSnapshot& m) {
  return double(m.btree_descents + m.cursor_seeks);
}

/// A database's files: the page file and everything named after it (WAL,
/// segments, fence, staging).
std::vector<fs::path> FilesWithPrefix(const std::string& prefix) {
  fs::path p(prefix);
  std::error_code ec;
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(p.parent_path(), ec)) {
    if (e.path().filename().string().rfind(p.filename().string(), 0) == 0) {
      out.push_back(e.path());
    }
  }
  return out;
}

uint64_t FileBytesWithPrefix(const std::string& prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::path& f : FilesWithPrefix(prefix)) {
    if (fs::is_regular_file(f, ec)) total += fs::file_size(f, ec);
  }
  return total;
}

void RemoveWithPrefix(const std::string& prefix) {
  std::error_code ec;
  for (const fs::path& f : FilesWithPrefix(prefix)) fs::remove_all(f, ec);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Median microseconds of fame::Crc32 over one 4 KB page.
double CrcPageUs() {
  std::vector<unsigned char> page(4096);
  std::mt19937_64 rng(g_cfg.seed);
  for (auto& b : page) b = static_cast<unsigned char>(rng());
  std::vector<double> per;
  static volatile uint32_t sink = 0;  // keeps the calls from being folded
  for (int batch = 0; batch < 15; ++batch) {
    uint64_t t0 = NowNs();
    for (int i = 0; i < 200; ++i) sink = sink ^ fame::Crc32(page.data(), page.size());
    per.push_back(Us(NowNs() - t0) / 200.0);
  }
  return Quantile(per, 0.5);
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run reports.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Workload-specific names (get_p50_us, commit_p99_us, ...) printed for
  /// reading; not part of the JSON line.
  std::vector<std::string> notes;

  void Add(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, v, unit});
  }
  void Note(const std::string& name, double v, const std::string& unit,
            size_t n) {
    char b[256];
    std::snprintf(b, sizeof(b), "%-28s %14.6g %-6s (n=%zu)", name.c_str(), v,
                  unit.c_str(), n);
    notes.push_back(b);
  }
  void NoteText(const std::string& s) { notes.push_back(s); }
  bool lines_printed = false;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 1e18;  // a percentile every sample failed
  char b[64];
  auto r = std::to_chars(b, b + sizeof(b), v);
  return std::string(b, r.ptr);
}

/// The readable lines: notes, then every metric with its unit. A workload
/// with a check after its measurement prints these first, so a failing
/// check still shows what was measured (but never a result line).
void PrintLines(Report* r) {
  for (const std::string& n : r->notes) std::printf("%s\n", n.c_str());
  for (const Metric& m : r->metrics) {
    std::printf("%-36s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::fflush(stdout);
  r->lines_printed = true;
}

/// The result line; the last line of stdout.
void PrintJson(const Report& r) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Runs `setup` kSetupReps times from scratch (each call must start by
/// removing the previous one's files) and returns the median seconds.
double TimedSetups(const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int i = 0; i < kSetupReps; ++i) {
    uint64_t t0 = NowNs();
    setup();
    secs.push_back(double(NowNs() - t0) / 1e9);
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

/// The measured phases of one run: [warm-up][phase A][phase B]. Untraced
/// runs measure A only, over --seconds. Traced runs split --seconds into
/// an untraced A and a traced B; the ops/s ratio is the tracing overhead.
struct Phases {
  double warm_s, a_s, b_s;
};

Phases PlanPhases() {
  double warm = std::min(1.0, 0.1 * g_cfg.seconds);
  if (!g_cfg.trace) return {warm, g_cfg.seconds, 0};
  return {warm, g_cfg.seconds / 2, g_cfg.seconds / 2};
}

/// End-to-end metrics every workload reports (the JSON line of --trace 0).
/// `main`/`side` are the workload's primary and secondary operation. The
/// p99s are printed under their workload names with their sample counts
/// but carry no bound: on a shared host their run-to-run spread is too
/// wide to gate on.
void AddEndToEnd(Report* r, double setup_s, double ops_per_s,
                 const Samples& main, const Samples& side, double space) {
  r->NoteText("main_p50_us per window: " + main.WindowRange() +
              ", side_p50_us per window: " + side.WindowRange());
  r->Add("setup_s", setup_s, "s");
  r->Add("ops_per_s", ops_per_s, "1/s");
  r->Add("main_p50_us", main.P50(), "us");
  r->Add("side_p50_us", side.P50(), "us");
  r->Add("bytes_per_user_byte", space, "ratio");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// Per-layer metrics (the JSON line of --trace 1). Every name is always
/// present; a layer the workload does not exercise reads 0.
struct Layers {
  std::vector<std::pair<std::string, std::string>> order = {
      {"common.crc32.page_us", "us"},
      {"common.crc32.us_per_op", "us"},
      {"storage.buffer.hit_ratio", "ratio"},
      {"storage.buffer.evictions_per_op", "count"},
      {"storage.buffer.writebacks_per_op", "count"},
      {"storage.buffer.fetches_per_insert", "count"},
      {"storage.pagefile.reads_per_op", "count"},
      {"storage.pagefile.writes_per_op", "count"},
      {"storage.pagefile.syncs_per_op", "count"},
      {"index.btree.descents_per_op", "count"},
      {"index.btree.descents_per_scanned_row", "count"},
      {"index.btree.splits_per_insert", "count"},
      {"index.cursor.scanned_per_returned", "ratio"},
      {"core.db.get_us", "us"},
      {"core.db.find_row_us", "us"},
      {"core.sql.execute_us", "us"},
      {"core.sql.overhead_us", "us"},
      {"core.snapshot.open_us", "us"},
      {"core.snapshot.seek_us", "us"},
      {"core.snapshot.next_us", "us"},
      {"tx.begin_us", "us"},
      {"tx.put_us", "us"},
      {"tx.commit_us", "us"},
      {"tx.wal.syncs_per_commit", "count"},
      {"tx.wal.records_per_batch_p50", "count"},
      {"tx.wal.bytes_per_commit", "B"},
      {"tx.mvcc.conflicts_per_commit", "ratio"},
      {"tx.mvcc.chain_len_p50", "count"},
      {"tx.mvcc.gc_pruned_per_commit", "count"},
      {"repl.ship_ms", "ms"},
      {"repl.apply_ms", "ms"},
      {"repl.bytes_per_round", "B"},
      {"osal.alloc.peak_bytes", "B"},
      {"osal.alloc.live_bytes", "B"},
      {"trace.overhead_pct", "%"},
  };
  std::map<std::string, double> v;

  void Set(const std::string& k, double x) {
    if (std::none_of(order.begin(), order.end(),
                     [&](const auto& o) { return o.first == k; })) {
      Die(kExitUsage, "unknown per-layer metric " + k);
    }
    v[k] = x;
  }
  /// Counter ratios over one phase [before, after] of `ops` operations.
  void FromCounters(const MetricsSnapshot& a, const MetricsSnapshot& b,
                    double ops) {
    double hits = double(b.buffer_hits - a.buffer_hits);
    double misses = double(b.buffer_misses - a.buffer_misses);
    Set("storage.buffer.hit_ratio", Ratio(hits, hits + misses));
    Set("storage.buffer.evictions_per_op",
        Ratio(double(b.buffer_evictions - a.buffer_evictions), ops));
    Set("storage.buffer.writebacks_per_op",
        Ratio(double(b.buffer_writebacks - a.buffer_writebacks), ops));
    Set("storage.pagefile.reads_per_op",
        Ratio(double(b.file_reads - a.file_reads), ops));
    Set("storage.pagefile.writes_per_op",
        Ratio(double(b.file_writes - a.file_writes), ops));
    Set("storage.pagefile.syncs_per_op",
        Ratio(double(b.file_syncs - a.file_syncs), ops));
    Set("index.btree.descents_per_op", Ratio(Descents(b) - Descents(a), ops));
    Set("index.cursor.scanned_per_returned",
        Ratio(double(b.cursor_rows_scanned - a.cursor_rows_scanned),
              double(b.cursor_rows_returned - a.cursor_rows_returned)));
    double commits = double(b.committed_txns - a.committed_txns);
    Set("tx.wal.syncs_per_commit", Ratio(double(b.wal_syncs - a.wal_syncs),
                                         commits));
    Set("tx.mvcc.conflicts_per_commit",
        Ratio(double(b.mvcc_conflicts - a.mvcc_conflicts),
              commits + double(b.mvcc_conflicts - a.mvcc_conflicts)));
    Set("tx.mvcc.gc_pruned_per_commit",
        Ratio(double(b.mvcc_gc_pruned - a.mvcc_gc_pruned), commits));
    if (b.wal_batch_records.count > 0) {
      Set("tx.wal.records_per_batch_p50",
          double(fame::obs::HistogramPercentile(b.wal_batch_records, 0.5)));
    }
    if (b.mvcc_chain_len.count > 0) {
      Set("tx.mvcc.chain_len_p50",
          double(fame::obs::HistogramPercentile(b.mvcc_chain_len, 0.5)));
    }
    Set("osal.alloc.peak_bytes", double(b.alloc_peak_bytes));
    Set("osal.alloc.live_bytes", double(b.alloc_live_bytes));
    double crc = CrcPageUs();
    Set("common.crc32.page_us", crc);
    Set("common.crc32.us_per_op",
        crc * Ratio(double(b.file_reads - a.file_reads), ops));
  }
  /// Log bytes made durable per commit over one phase.
  void SetWalBytes(const MetricsSnapshot& a, const MetricsSnapshot& b,
                   uint64_t lsn_a, uint64_t lsn_b) {
    Set("tx.wal.bytes_per_commit",
        Ratio(double(lsn_b - lsn_a), double(b.committed_txns - a.committed_txns)));
  }
  /// Median span durations, in the unit of the metric name.
  void FromSpans(const std::map<std::string, SpanSummary>& sums) {
    auto us = [&](const char* span, const char* metric, double scale = 1.0) {
      auto it = sums.find(span);
      if (it != sums.end()) Set(metric, it->second.p50_us * scale);
    };
    us("core.db.get", "core.db.get_us");
    us("core.db.find_row", "core.db.find_row_us");
    us("core.sql.execute", "core.sql.execute_us");
    us("core.snapshot.open", "core.snapshot.open_us");
    us("core.snapshot.seek", "core.snapshot.seek_us");
    us("core.snapshot.next", "core.snapshot.next_us");
    us("tx.begin", "tx.begin_us");
    us("tx.put", "tx.put_us");
    us("tx.commit", "tx.commit_us");
    us("repl.ship", "repl.ship_ms", 1e-3);
    us("repl.apply", "repl.apply_ms", 1e-3);
  }
  void Emit(Report* r) const {
    for (const auto& [name, unit] : order) {
      auto it = v.find(name);
      r->Add(name, it == v.end() ? 0.0 : it->second, unit);
    }
  }
};

/// Shared tail of a traced run: span table, span dump, overhead.
void FinishTrace(Report* r, Layers* layers,
                 const std::vector<const Tracer*>& tracers, double ops_a,
                 double ops_b) {
  auto sums = Summarize(tracers);
  layers->FromSpans(sums);
  layers->Set("trace.overhead_pct", (Ratio(ops_a, ops_b) - 1.0) * 100.0);
  uint64_t dropped = 0;
  for (const Tracer* t : tracers) dropped += t->dropped();
  r->NoteText("span                      count     p50_us    total_ms     self_ms");
  for (const auto& [name, s] : sums) {
    char b[160];
    std::snprintf(b, sizeof(b), "%-22s %8llu %10.3f %11.1f %11.1f",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.p50_us, s.total_us / 1e3, s.self_us / 1e3);
    r->NoteText(b);
  }
  r->NoteText("spans not kept past the per-thread cap: " +
              std::to_string(dropped));
  if (!g_cfg.spans.empty()) {
    DumpSpans(g_cfg.spans, tracers);
    r->NoteText("span dump: " + g_cfg.spans);
  }
  layers->Emit(r);
}

std::string DbPath(const std::string& name) {
  return (fs::path(g_cfg.dir) / name).string();
}

// ================================================================ kv_spill
//
// One client, B+-Tree product without transactions, 64 buffer frames over
// ~14x as many heap pages: Fig. 1b's constrained pool. 94.9% Zipf Get, 5%
// same-size overwrite, 0.1% new-key insert (fixed interleave).

void RunKvSpill(Report* r) {
  const uint64_t n = Records();
  const std::string path = DbPath("kv.db");
  DbOptions opts;
  opts.features = {"Linux", "B+-Tree", "Get", "Put"};
  opts.path = path;

  std::unique_ptr<Database> db;
  std::vector<uint64_t> ver;  // version last written per key
  double setup_s = TimedSetups([&] {
    db.reset();
    RemoveWithPrefix(path);
    std::mt19937_64 rng(g_cfg.seed);
    std::vector<uint64_t> order(n);
    for (uint64_t i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    DbOptions load = opts;
    load.buffer_frames = 4096;  // holds the whole file while loading
    auto ldb = Take(Database::Open(load), "open (load)");
    for (uint64_t i : order) Require(ldb->Put(KeyOf(i), ValueOf(i, 0)), "load put");
    Require(ldb->Checkpoint(), "load checkpoint");
    ldb.reset();
    opts.buffer_frames = 64;
    db = Take(Database::Open(opts), "open (64 frames)");
    ver.assign(n, 0);
  });

  std::mt19937_64 rng(g_cfg.seed * 31 + 7);
  Zipf zipf(n, 0.99, &rng);
  uint64_t next_new = n;
  Samples get_us, insert_us, put_us;
  Tracer tracer(0);
  uint64_t op_index = 0;
  std::vector<double> fetches_per_insert;
  uint64_t splits_inserts = 0;
  std::string got;

  // Returns false on a failed (non-OK) operation.
  auto one_op = [&](bool record) {
    const uint64_t i = op_index++;
    if (i % 1000 == 999) {  // new-key insert
      const uint64_t k = next_new++;
      ver.push_back(0);
      ScopedSpan root(&tracer, kSpanOpInsert);
      MetricsSnapshot before;
      if (tracer.on()) before = Stats(*db);
      uint64_t t0 = NowNs();
      Status s;
      {
        ScopedSpan sp(&tracer, kSpanDbPut);
        s = db->Put(KeyOf(k), ValueOf(k, 0));
      }
      uint64_t dt = NowNs() - t0;
      if (tracer.on()) {
        MetricsSnapshot after = Stats(*db);
        fetches_per_insert.push_back(
            double(after.buffer_hits + after.buffer_misses -
                   before.buffer_hits - before.buffer_misses));
        splits_inserts += after.btree_splits - before.btree_splits;
      }
      if (!s.ok()) {
        ver.pop_back();
        --next_new;
        if (record) insert_us.AddFailed();
        return false;
      }
      if (record) insert_us.Add(Us(dt));
      return true;
    }
    const uint64_t k = zipf.Next(&rng);
    if (i % 20 == 19) {  // same-size overwrite
      uint64_t t0 = NowNs();
      Status s;
      {
        ScopedSpan sp(&tracer, kSpanDbPut);
        s = db->Put(KeyOf(k), ValueOf(k, ver[k] + 1));
      }
      uint64_t dt = NowNs() - t0;
      if (!s.ok()) {
        if (record) put_us.AddFailed();
        return false;
      }
      ++ver[k];
      if (record) put_us.Add(Us(dt));
      return true;
    }
    uint64_t t0 = NowNs();
    Status s;
    {
      ScopedSpan sp(&tracer, kSpanDbGet);
      s = db->Get(KeyOf(k), &got);
    }
    uint64_t dt = NowNs() - t0;
    if (s.IsNotFound()) Mismatch("Get " + KeyOf(k) + " not found");
    if (!s.ok()) {
      if (record) get_us.AddFailed();
      return false;
    }
    if (got != ExpectedValue(k, ver[k])) {
      Mismatch("Get " + KeyOf(k) + " returned a value the generator never "
               "wrote last");
    }
    if (record) get_us.Add(Us(dt));
    return true;
  };

  Phases ph = PlanPhases();
  RunClosedLoop(ph.warm_s, [&] { return one_op(false); }, {});
  LoopOut a = RunClosedLoop(ph.a_s, [&] { return one_op(true); },
                            {&get_us, &insert_us, &put_us});
  r->attempted = a.ops;
  r->failed = a.failed;

  auto user_bytes = [&] { return double(ver.size() * (kKeyBytes + kValueBytes)); };
  if (!g_cfg.trace) {
    Require(db->Checkpoint(), "final checkpoint");
    double space = double(FileBytesWithPrefix(path)) / user_bytes();
    r->NoteText("kv_spill: clients=1 records=" + std::to_string(ver.size()) +
                " pool_frames=64 file_pages=" +
                std::to_string(Stats(*db).page_count) + " flush=none (no WAL)");
    r->Note("get_p50_us", get_us.P50(), "us", get_us.n());
    r->Note("get_p99_us", get_us.P99(), "us", get_us.n());
    r->Note("insert_p50_us", insert_us.P50(), "us", insert_us.n());
    r->Note("put_p50_us", put_us.P50(), "us", put_us.n());
    r->Note("fail_ratio", Ratio(double(a.failed), double(a.ops)), "ratio",
            a.ops);
    AddEndToEnd(r, setup_s, a.Rate(), get_us, insert_us, space);
    return;
  }
  tracer.set_on(true);
  MetricsSnapshot b0 = Stats(*db);
  LoopOut b = RunClosedLoop(ph.b_s, [&] { return one_op(false); }, {});
  MetricsSnapshot b1 = Stats(*db);
  r->attempted += b.ops;
  r->failed += b.failed;
  Layers layers;
  layers.FromCounters(b0, b1, double(b.ops));
  // The per-insert bracket's own Stats() calls are no buffer fetches.
  std::sort(fetches_per_insert.begin(), fetches_per_insert.end());
  if (!fetches_per_insert.empty()) {
    layers.Set("storage.buffer.fetches_per_insert",
               fetches_per_insert[fetches_per_insert.size() / 2]);
    layers.Set("index.btree.splits_per_insert",
               double(splits_inserts) / double(fetches_per_insert.size()));
  }
  FinishTrace(r, &layers, {&tracer}, a.Rate(), b.Rate());
}

// ================================================================= sql_fit
//
// One client, SQL-Engine + Optimizer product, a 3-column table whose file
// fits the pool: no page misses, so parse/plan/cursor/decode carry the
// cost. 90% point SELECT by primary key, 10% 100-row range SELECT.

std::string NameOf(uint64_t id) { return ValueOf(id, 0).substr(17, 24); }
int64_t QtyOf(uint64_t id) { return static_cast<int64_t>(Mix(id) % 100000); }

void CheckRow(const fame::core::Row& row, uint64_t id, const std::string& q) {
  uint64_t want = ExpectedKeyInValue(id);
  if (row.size() != 3 || row[0].AsInt() != static_cast<int64_t>(want) ||
      row[1].AsString() != NameOf(want) || row[2].AsInt() != QtyOf(want)) {
    Mismatch("row of id " + std::to_string(id) + " wrong for: " + q);
  }
}

void RunSqlFit(Report* r) {
  const uint64_t n = Records();
  const std::string path = DbPath("sql.db");
  DbOptions opts;
  opts.features = {"Linux", "B+-Tree", "SQL-Engine", "Optimizer", "Int-Types",
                   "String-Types"};
  opts.path = path;
  opts.buffer_frames = 4096;  // 16 MB, several times the table's file

  std::unique_ptr<Database> db;
  double setup_s = TimedSetups([&] {
    db.reset();
    RemoveWithPrefix(path);
    auto ldb = Take(Database::Open(opts), "open (load)");
    fame::core::SqlEngine* sql = ldb->sql();
    if (sql == nullptr) Die(kExitSetup, "product has no SQL engine");
    Take(sql->Execute("CREATE TABLE t (id INT, name TEXT, qty INT)"),
         "create table");
    std::mt19937_64 rng(g_cfg.seed);
    std::vector<uint64_t> order(n);
    for (uint64_t i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (uint64_t b = 0; b < n; b += 100) {
      std::string stmt = "INSERT INTO t VALUES ";
      for (uint64_t j = b; j < std::min(n, b + 100); ++j) {
        uint64_t id = order[j];
        stmt += (j == b ? "(" : ", (") + std::to_string(id) + ", '" +
                NameOf(id) + "', " + std::to_string(QtyOf(id)) + ")";
      }
      Take(sql->Execute(stmt), "load insert");
    }
    Require(ldb->Checkpoint(), "load checkpoint");
    ldb.reset();
    db = Take(Database::Open(opts), "reopen");
  });
  fame::core::SqlEngine* sql = db->sql();

  std::mt19937_64 rng(g_cfg.seed * 31 + 11);
  Samples point_us, range_us, find_us, traced_point_us;
  Tracer tracer(0);
  uint64_t op_index = 0;
  uint64_t rows_returned = 0;

  auto one_op = [&](bool record) {
    const uint64_t i = op_index++;
    if (i % 10 == 9) {  // range
      const uint64_t k = Uniform(&rng, n - 100);
      const std::string q =
          "SELECT * FROM t WHERE id >= " + std::to_string(k) + " LIMIT 100";
      uint64_t t0 = NowNs();
      fame::StatusOr<fame::core::ResultSet> rs = fame::Status::OK();
      {
        ScopedSpan sp(&tracer, kSpanSqlExecute);
        rs = sql->Execute(q);
      }
      uint64_t dt = NowNs() - t0;
      if (!rs.ok()) {
        if (record) range_us.AddFailed();
        return false;
      }
      if (rs->rows.size() != 100) {
        Mismatch(q + " returned " + std::to_string(rs->rows.size()) + " rows");
      }
      for (size_t j = 0; j < rs->rows.size(); ++j) CheckRow(rs->rows[j], k + j, q);
      rows_returned += rs->rows.size();
      if (record) range_us.Add(Us(dt));
      return true;
    }
    const uint64_t k = Uniform(&rng, n);
    const std::string q = "SELECT * FROM t WHERE id = " + std::to_string(k);
    uint64_t t0 = NowNs();
    fame::StatusOr<fame::core::ResultSet> rs = fame::Status::OK();
    {
      ScopedSpan sp(&tracer, kSpanSqlExecute);
      rs = sql->Execute(q);
    }
    uint64_t dt = NowNs() - t0;
    if (!rs.ok()) {
      if (record) point_us.AddFailed();
      return false;
    }
    if (rs->rows.size() != 1) Mismatch(q + " did not return exactly one row");
    CheckRow(rs->rows[0], k, q);
    ++rows_returned;
    if (record) point_us.Add(Us(dt));
    if (tracer.on()) {
      traced_point_us.Add(Us(dt));
      uint64_t f0 = NowNs();
      fame::StatusOr<fame::core::Row> row = fame::Status::OK();
      {
        ScopedSpan fs(&tracer, kSpanDbFindRow);
        // SQL identifiers are upper-cased by the parser.
        row = db->FindRow("T", fame::core::Value::Int(int64_t(k)));
      }
      if (!row.ok()) return false;
      CheckRow(*row, k, "FindRow");
      find_us.Add(Us(NowNs() - f0));
    }
    return true;
  };

  Phases ph = PlanPhases();
  RunClosedLoop(ph.warm_s, [&] { return one_op(false); }, {});
  LoopOut a = RunClosedLoop(ph.a_s, [&] { return one_op(true); },
                            {&point_us, &range_us});
  r->attempted = a.ops;
  r->failed = a.failed;
  if (!g_cfg.trace) {
    // name is 24 chars; id and qty count 8 bytes each.
    double user = double(n) * (8 + 24 + 8);
    double space = double(FileBytesWithPrefix(path)) / user;
    r->NoteText("sql_fit: clients=1 rows=" + std::to_string(n) +
                " pool_frames=4096 file_pages=" +
                std::to_string(Stats(*db).page_count) + " flush=none (no WAL)");
    r->Note("sql_point_p50_us", point_us.P50(), "us", point_us.n());
    r->Note("sql_point_p99_us", point_us.P99(), "us", point_us.n());
    r->Note("sql_range_p50_us", range_us.P50(), "us", range_us.n());
    r->Note("fail_ratio", Ratio(double(a.failed), double(a.ops)), "ratio",
            a.ops);
    AddEndToEnd(r, setup_s, a.Rate(), point_us, range_us, space);
    return;
  }
  tracer.set_on(true);
  MetricsSnapshot b0 = Stats(*db);
  LoopOut b = RunClosedLoop(ph.b_s, [&] { return one_op(false); }, {});
  MetricsSnapshot b1 = Stats(*db);
  r->attempted += b.ops;
  r->failed += b.failed;
  Layers layers;
  layers.FromCounters(b0, b1, double(b.ops));
  // Point statements of the traced half against the typed Get of the same
  // keys: the statement's own cost (parse, plan, cursor pipeline).
  layers.Set("core.sql.overhead_us", traced_point_us.Pct(0.5) - find_us.Pct(0.5));
  FinishTrace(r, &layers, {&tracer}, a.Rate(), b.Rate());
}

// =============================================================== txn_mixed
//
// Four closed-loop clients on a Transaction + Mvcc + Concurrency product
// over PosixEnv files with WAL fsync at group commit. Three writers commit
// 4-put transactions on disjoint key ranges; one reader runs 100-row
// snapshot scans. The pool holds the data.

DbOptions TxnOptions(const std::string& path) {
  DbOptions o;
  o.features = {"Linux", "B+-Tree", "Transaction", "Update", "BTree-Update",
                "Mvcc", "Concurrency"};
  o.path = path;
  o.buffer_frames = 4096;
  return o;
}

/// Loads keys [0, n) at version 0 in 500-put transactions.
void LoadTxn(Database* db, uint64_t n) {
  for (uint64_t b = 0; b < n; b += 500) {
    fame::tx::Transaction* txn = Take(db->Begin(), "load begin");
    for (uint64_t i = b; i < std::min(n, b + 500); ++i) {
      Require(txn->Put("core", KeyOf(i), ValueOf(i, 0)), "load put");
    }
    Require(db->Commit(txn), "load commit");
  }
}

void RunTxnMixed(Report* r) {
  constexpr int kWriters = 3;
  const uint64_t n = Records();
  const std::string path = DbPath("txn.db");
  const DbOptions opts = TxnOptions(path);

  std::unique_ptr<Database> db;
  double setup_s = TimedSetups([&] {
    db.reset();
    RemoveWithPrefix(path);
    auto ldb = Take(Database::Open(opts), "open (load)");
    LoadTxn(ldb.get(), n);
    Require(ldb->Checkpoint(), "load checkpoint");
    ldb.reset();
    db = Take(Database::Open(opts), "reopen");
  });

  std::vector<uint64_t> ver(n, 0);  // writer w owns [w*n/3, (w+1)*n/3)
  MismatchLatch mismatch;
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (int t = 0; t <= kWriters; ++t) {
    tracers.push_back(std::make_unique<Tracer>(uint16_t(t)));
  }
  std::vector<std::mt19937_64> rngs;
  for (int t = 0; t <= kWriters; ++t) rngs.emplace_back(g_cfg.seed * 131 + t);

  struct PhaseOut {
    Samples commit, scan;
    uint64_t ops = 0, failed = 0;
    double secs = 0;
  };

  auto writer = [&](int w, uint64_t end_ns, bool record, PhaseOut* out) {
    Tracer* tr = tracers[size_t(w)].get();
    std::mt19937_64& rng = rngs[size_t(w)];
    const uint64_t lo = uint64_t(w) * n / kWriters;
    const uint64_t span = uint64_t(w + 1) * n / kWriters - lo;
    while (NowNs() < end_ns && !mismatch.hit.load()) {
      uint64_t keys[4];
      for (int j = 0; j < 4; ++j) {
        bool dup;
        do {
          keys[j] = lo + Uniform(&rng, span);
          dup = std::find(keys, keys + j, keys[j]) != keys + j;
        } while (dup);
      }
      ScopedSpan root(tr, kSpanOpTxn);
      uint64_t t0 = NowNs();
      fame::StatusOr<fame::tx::Transaction*> txn = fame::Status::OK();
      {
        ScopedSpan sp(tr, kSpanTxBegin);
        txn = db->Begin();
      }
      Status s = txn.status();
      for (int j = 0; j < 4 && s.ok(); ++j) {
        ScopedSpan sp(tr, kSpanTxPut);
        s = (*txn)->Put("core", KeyOf(keys[j]), ValueOf(keys[j], ver[keys[j]] + 1));
      }
      if (s.ok()) {
        ScopedSpan sp(tr, kSpanTxCommit);
        s = db->Commit(*txn);
      } else if (txn.ok()) {
        (void)db->Abort(*txn);
      }
      uint64_t dt = NowNs() - t0;
      ++out->ops;
      if (!s.ok()) {
        ++out->failed;
        if (record) out->commit.AddFailed();
        continue;
      }
      for (uint64_t k : keys) ++ver[k];
      if (record) out->commit.Add(Us(dt));
    }
  };

  auto reader = [&](uint64_t end_ns, bool record, PhaseOut* out) {
    Tracer* tr = tracers[kWriters].get();
    std::mt19937_64& rng = rngs[kWriters];
    while (NowNs() < end_ns && !mismatch.hit.load()) {
      const uint64_t k = Uniform(&rng, n - 100);
      ScopedSpan root(tr, kSpanOpScan);
      uint64_t t0 = NowNs();
      fame::StatusOr<fame::core::SnapshotCursor> cur = fame::Status::OK();
      {
        ScopedSpan sp(tr, kSpanSnapOpen);
        cur = db->NewSnapshotCursor();
      }
      ++out->ops;
      if (!cur.ok()) {
        ++out->failed;
        if (record) out->scan.AddFailed();
        continue;
      }
      {
        ScopedSpan sp(tr, kSpanSnapSeek);
        cur->Seek(KeyOf(k));
      }
      uint64_t rows = 0;
      std::string prev;
      bool ok = true;
      for (int j = 0; j < 100; ++j) {
        if (!cur->Valid()) {
          ok = cur->status().ok();
          break;
        }
        std::string key = cur->key().ToString();
        Slice v = cur->value();
        if (!prev.empty() && key <= prev) {
          mismatch.Set("snapshot scan keys not strictly increasing at " + key);
        }
        uint64_t want = ExpectedKeyInValue(k + rows);
        if (key != KeyOf(k + rows) || v.size() != kValueBytes ||
            std::string(v.data(), 15) != KeyOf(want).substr(1)) {
          mismatch.Set("snapshot scan row " + std::to_string(rows) +
                       " from " + KeyOf(k) + " is " + key);
        }
        prev = std::move(key);
        ++rows;
        ScopedSpan sp(tr, kSpanSnapNext);
        cur->Next();
      }
      uint64_t dt = NowNs() - t0;
      if (!ok) {
        ++out->failed;
        if (record) out->scan.AddFailed();
        continue;
      }
      if (rows != 100) {
        mismatch.Set("snapshot scan from " + KeyOf(k) + " returned " +
                     std::to_string(rows) + " rows");
      }
      if (record) out->scan.Add(Us(dt));
    }
  };

  auto run_phase = [&](double secs, bool record) {
    std::vector<PhaseOut> outs(kWriters + 1);
    uint64_t t0 = NowNs();
    const uint64_t end = t0 + static_cast<uint64_t>(secs * 1e9);
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back(writer, w, end, record, &outs[size_t(w)]);
    }
    threads.emplace_back(reader, end, record, &outs[kWriters]);
    for (auto& t : threads) t.join();
    PhaseOut all;
    all.secs = double(NowNs() - t0) / 1e9;
    for (auto& o : outs) {
      all.commit.Merge(o.commit);
      all.scan.Merge(o.scan);
      all.ops += o.ops;
      all.failed += o.failed;
    }
    if (mismatch.hit.load()) Mismatch(mismatch.what);
    return all;
  };

  Phases ph = PlanPhases();
  run_phase(ph.warm_s, false);
  PhaseOut a = run_phase(ph.a_s, true);
  r->attempted = a.ops;
  r->failed = a.failed;

  // Durability of acknowledged writes: reopen and read every key back.
  auto verify_reopen = [&] {
    db.reset();
    db = Take(Database::Open(opts), "verification reopen");
    std::string got;
    for (uint64_t k = 0; k < n; ++k) {
      Status s = db->Get(KeyOf(k), &got);
      if (!s.ok()) Mismatch("after reopen, Get " + KeyOf(k) + ": " + s.ToString());
      if (got != ExpectedValue(k, ver[k])) {
        Mismatch("after reopen, " + KeyOf(k) + " holds version " +
                 got.substr(16, 8) + ", its writer's last acknowledged "
                 "version is " + ExpectedValue(k, ver[k]).substr(16, 8));
      }
    }
  };

  if (!g_cfg.trace) {
    double wal_and_pages = double(FileBytesWithPrefix(path));
    double space = wal_and_pages / double(n * (kKeyBytes + kValueBytes));
    uint64_t pages = Stats(*db).page_count;
    r->NoteText("txn_mixed: clients=4 (3 writers, 1 reader) records=" +
                std::to_string(n) + " pool_frames=4096 file_pages=" +
                std::to_string(pages) + " flush=WAL fsync per group commit");
    r->Note("commit_p50_us", a.commit.Pct(0.5), "us", a.commit.n());
    r->Note("commit_p99_us", a.commit.Pct(0.99), "us", a.commit.n());
    r->Note("scan_p50_us", a.scan.Pct(0.5), "us", a.scan.n());
    r->Note("scan_p99_us", a.scan.Pct(0.99), "us", a.scan.n());
    r->Note("fail_ratio", Ratio(double(a.failed), double(a.ops)), "ratio",
            a.ops);
    AddEndToEnd(r, setup_s, double(a.ops) / a.secs, a.commit, a.scan, space);
    PrintLines(r);
    verify_reopen();
    return;
  }
  for (auto& t : tracers) t->set_on(true);
  MetricsSnapshot b0 = Stats(*db);
  uint64_t lsn0 = db->DurableLsn();
  PhaseOut b = run_phase(ph.b_s, false);
  MetricsSnapshot b1 = Stats(*db);
  uint64_t lsn1 = db->DurableLsn();
  for (auto& t : tracers) t->set_on(false);
  r->attempted += b.ops;
  r->failed += b.failed;
  Layers layers;
  layers.FromCounters(b0, b1, double(b.ops));
  layers.SetWalBytes(b0, b1, lsn0, lsn1);
  // Re-descents per scanned row, with the writers stopped so the B+-tree
  // counter holds the reader's descents only.
  {
    MetricsSnapshot c0 = Stats(*db);
    PhaseOut solo;
    reader(NowNs() + 200'000'000ull, false, &solo);
    if (mismatch.hit.load()) Mismatch(mismatch.what);
    MetricsSnapshot c1 = Stats(*db);
    layers.Set("index.btree.descents_per_scanned_row",
               Ratio(Descents(c1) - Descents(c0), double(solo.ops * 100)));
  }
  std::vector<const Tracer*> view;
  for (auto& t : tracers) view.push_back(t.get());
  FinishTrace(r, &layers, view, double(a.ops) / a.secs, double(b.ops) / b.secs);
  PrintLines(r);
  verify_reopen();
}

// =============================================================== repl_ship
//
// One client on a Replication leader (segmented WAL, PosixEnv) with an
// in-process follower. Each round commits 64 single-put transactions,
// ships them (Leader::SyncOnce) and applies them (Follower::Sweep).

DbOptions ReplOptions(const std::string& path) {
  DbOptions o;
  o.features = {"Linux", "B+-Tree", "Transaction", "Update", "BTree-Update"};
  fame::repl::AddReplicationFeatures(&o.features);
  o.path = path;
  o.buffer_frames = 4096;
  return o;
}

void RunReplShip(Report* r) {
  constexpr int kBatch = 64;
  const uint64_t n = Records();
  const std::string lpath = DbPath("leader.db");
  const std::string fpath = DbPath("replica.db");
  fame::osal::Env* env = fame::osal::GetPosixEnv();

  std::unique_ptr<Database> db;
  std::unique_ptr<fame::repl::Follower> follower;
  std::unique_ptr<fame::repl::InProcessTransport> link;
  std::unique_ptr<fame::repl::Leader> leader;
  double setup_s = TimedSetups([&] {
    leader.reset();
    link.reset();
    follower.reset();
    db.reset();
    RemoveWithPrefix(lpath);
    RemoveWithPrefix(fpath);
    db = Take(Database::Open(ReplOptions(lpath)), "open leader");
    Require(db->StartLeader(1), "start leader");
    LoadTxn(db.get(), n);
    Require(db->Checkpoint(), "load checkpoint");
    fame::repl::Follower::Options fo;
    fo.base = ReplOptions(fpath);
    follower = Take(fame::repl::Follower::Attach(env, fpath, fo), "attach");
    link = std::make_unique<fame::repl::InProcessTransport>(follower.get());
    leader = std::make_unique<fame::repl::Leader>(
        Take(db->ReplicationSource(), "replication source"), 1, link.get());
    for (int i = 0; i < 16 && (i == 0 || leader->lag_bytes() != 0); ++i) {
      Require(leader->SyncOnce(), "bootstrap sync");
    }
    if (leader->lag_bytes() != 0) Die(kExitSetup, "bootstrap did not catch up");
    Require(follower->Sweep(), "bootstrap sweep");
  });

  std::vector<uint64_t> ver(n, 0);
  std::mt19937_64 rng(g_cfg.seed * 17 + 3);
  Tracer tracer(0);
  std::vector<double> bytes_per_round;

  // Sampled keys on the follower equal what the leader acknowledged.
  auto check_follower = [&](const std::vector<uint64_t>& written) {
    std::vector<uint64_t> sample(written.begin(),
                                 written.begin() + std::min<size_t>(8, written.size()));
    for (int j = 0; j < 8; ++j) sample.push_back(Uniform(&rng, n));
    auto fdb = Take(Database::Open(ReplOptions(fpath)), "open follower to check");
    std::string got;
    for (uint64_t k : sample) {
      Status s = fdb->Get(KeyOf(k), &got);
      if (!s.ok()) Mismatch("follower Get " + KeyOf(k) + ": " + s.ToString());
      if (got != ExpectedValue(k, ver[k])) {
        Mismatch("follower " + KeyOf(k) + " differs from the leader's value");
      }
      s = db->Get(KeyOf(k), &got);
      if (!s.ok() || got != ExpectedValue(k, ver[k])) {
        Mismatch("leader " + KeyOf(k) + " lost its acknowledged value");
      }
    }
  };

  // Rounds until `secs` of measured time (follower checks excluded) pass.
  auto run_phase = [&](double secs, Samples* commit_us, Samples* lag_us) {
    LoopOut out;
    const uint64_t budget = static_cast<uint64_t>(secs * 1e9);
    uint64_t measured = 0, win_measured = 0, win_ops = 0;
    while (measured < budget) {
      uint64_t r0 = NowNs();
      std::vector<uint64_t> written;
      {
        ScopedSpan root(&tracer, kSpanOpRound);
        for (int j = 0; j < kBatch; ++j) {
          const uint64_t k = Uniform(&rng, n);
          uint64_t t0 = NowNs();
          fame::StatusOr<fame::tx::Transaction*> txn = fame::Status::OK();
          {
            ScopedSpan sp(&tracer, kSpanTxBegin);
            txn = db->Begin();
          }
          Status s = txn.status();
          if (s.ok()) {
            ScopedSpan sp(&tracer, kSpanTxPut);
            s = (*txn)->Put("core", KeyOf(k), ValueOf(k, ver[k] + 1));
          }
          if (s.ok()) {
            ScopedSpan sp(&tracer, kSpanTxCommit);
            s = db->Commit(*txn);
          } else if (txn.ok()) {
            (void)db->Abort(*txn);
          }
          uint64_t dt = NowNs() - t0;
          ++out.ops;
          if (!s.ok()) {
            ++out.failed;
            if (commit_us) commit_us->AddFailed();
            continue;
          }
          ++ver[k];
          written.push_back(k);
          if (commit_us) commit_us->Add(Us(dt));
        }
        uint64_t batch_end = NowNs();
        uint64_t acked0 = leader->acked_end();
        Status s;
        {
          ScopedSpan sp(&tracer, kSpanReplShip);
          s = leader->SyncOnce();
        }
        if (s.ok() && leader->lag_bytes() != 0) {
          s = Status::Busy("follower did not ack the whole batch");
        }
        if (s.ok()) {
          ScopedSpan sp(&tracer, kSpanReplApply);
          s = follower->Sweep();
        }
        uint64_t lag = NowNs() - batch_end;
        bytes_per_round.push_back(double(leader->acked_end() - acked0));
        if (!s.ok()) {
          ++out.failed;
          if (lag_us) lag_us->AddFailed();
        } else if (lag_us) {
          lag_us->Add(Us(lag));
        }
      }
      const uint64_t round_ns = NowNs() - r0;
      measured += round_ns;
      win_measured += round_ns;
      win_ops += kBatch;
      if (win_measured >= kWindowSec * 1e9 || measured >= budget) {
        out.rates.push_back(double(win_ops) * 1e9 / double(win_measured));
        for (Samples* smp : {commit_us, lag_us}) {
          if (smp) smp->CloseWindow();
        }
        win_measured = win_ops = 0;
      }
      check_follower(written);
    }
    out.secs = double(measured) / 1e9;
    return out;
  };

  Phases ph = PlanPhases();
  run_phase(ph.warm_s, nullptr, nullptr);
  Samples commit_us, lag_us;
  LoopOut a = run_phase(ph.a_s, &commit_us, &lag_us);
  r->attempted = a.ops;
  r->failed = a.failed;
  if (!g_cfg.trace) {
    // Space after a checkpoint, so it does not depend on how many rounds
    // the run fitted in (the follower has acked everything by now).
    Require(db->Checkpoint(), "final checkpoint");
    double space = double(FileBytesWithPrefix(lpath)) /
                   double(n * (kKeyBytes + kValueBytes));
    r->NoteText("repl_ship: clients=1 records=" + std::to_string(n) +
                " batch=64 single-put txns/round pool_frames=4096 "
                "file_pages=" + std::to_string(Stats(*db).page_count) +
                " flush=WAL fsync per commit; follower sweep per round");
    r->Note("commit_p50_us", commit_us.P50(), "us", commit_us.n());
    r->Note("commit_p99_us", commit_us.P99(), "us", commit_us.n());
    r->Note("repl_lag_p50_ms", lag_us.P50() / 1e3, "ms", lag_us.n());
    r->Note("fail_ratio", Ratio(double(a.failed), double(a.ops)), "ratio",
            a.ops);
    AddEndToEnd(r, setup_s, a.Rate(), commit_us, lag_us, space);
    return;
  }
  tracer.set_on(true);
  bytes_per_round.clear();
  MetricsSnapshot b0 = Stats(*db);
  uint64_t lsn0 = db->DurableLsn();
  LoopOut b = run_phase(ph.b_s, nullptr, nullptr);
  MetricsSnapshot b1 = Stats(*db);
  uint64_t lsn1 = db->DurableLsn();
  r->attempted += b.ops;
  r->failed += b.failed;
  Layers layers;
  layers.FromCounters(b0, b1, double(b.ops));
  layers.SetWalBytes(b0, b1, lsn0, lsn1);
  std::sort(bytes_per_round.begin(), bytes_per_round.end());
  if (!bytes_per_round.empty()) {
    layers.Set("repl.bytes_per_round", bytes_per_round[bytes_per_round.size() / 2]);
  }
  FinishTrace(r, &layers, {&tracer}, a.Rate(), b.Rate());
}

// ------------------------------------------------------------------ main

Config ParseArgs(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) Die(kExitUsage, "missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      c.workload = val();
    } else if (a == "--seed") {
      c.seed = std::stoull(val());
    } else if (a == "--seconds") {
      c.seconds = std::stod(val());
    } else if (a == "--trace") {
      c.trace = val() == "1";
    } else if (a == "--dir") {
      c.dir = val();
    } else if (a == "--spans") {
      c.spans = val();
    } else if (a == "--scale") {
      c.scale = std::stod(val());
    } else if (a == "--wrong-expect") {
      c.wrong_expect = true;
    } else {
      Die(kExitUsage, "unknown argument " + a);
    }
  }
  if (c.seconds <= 0 || c.scale <= 0) Die(kExitUsage, "bad --seconds/--scale");
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  g_cfg = ParseArgs(argc, argv);
  std::error_code ec;
  fs::create_directories(g_cfg.dir, ec);
  const std::map<std::string, void (*)(Report*)> workloads = {
      {"kv_spill", RunKvSpill},
      {"sql_fit", RunSqlFit},
      {"txn_mixed", RunTxnMixed},
      {"repl_ship", RunReplShip}};
  auto it = workloads.find(g_cfg.workload);
  if (it == workloads.end()) Die(kExitUsage, "unknown workload " + g_cfg.workload);
  Report report;
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              g_cfg.workload.c_str(),
              static_cast<unsigned long long>(g_cfg.seed), g_cfg.seconds,
              g_cfg.trace ? 1 : 0);
  it->second(&report);
  if (!report.lines_printed) PrintLines(&report);
  PrintJson(report);
  return 0;
}
