// Shared pieces of the federation benchmark: run options, the result each
// workload returns, sample statistics, process-level clocks, the span
// tracer, and a small JSON reader for checking HTTP bodies.
//
// Everything here is the benchmark's own code.  Timings are taken with
// clocks read directly from the kernel (never through the program's
// CpuMeter), so a change inside src/ cannot move the yardstick.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Deliberate faults injected into the benchmark's *reference* answers by
/// the self-test, to show that each workload's checks can fail.
enum class Perturb {
  none,
  fold_off_by_one_host,  ///< tree_*: reference fold drops one host
  edge_summary,          ///< tree_*: reference child summary gains a host
  topk_value,            ///< dashboard: reference top-k value nudged
  stale_first_page,      ///< dashboard: expect the previous round's fold
  unconvicted_crash,     ///< membership: schedule says crashed, nobody is
  early_conviction,      ///< membership: expect conviction before t_fail
  restart_not_seen,      ///< membership: expect a restarted member dead
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny scale, set by the self-test (few hosts, few members).
  bool tiny = false;
  Perturb perturb = Perturb::none;
  /// Directory the traced run writes its span file into ("" = none).
  std::string spans_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed correctness checks
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;     ///< human-readable extra lines

  bool correct() const { return problems.empty(); }
  /// Record a failed check (kept short: the first few are printed).
  void problem(std::string what) {
    if (problems.size() < 64) problems.push_back(std::move(what));
  }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

Outcome run_tree(const Options& options);        // tree_xml, tree_delta, dashboard
Outcome run_membership(const Options& options);  // membership

// ------------------------------------------------------------------ clocks

/// Monotonic wall time in nanoseconds.
std::int64_t wall_ns();
/// CPU time of the whole process (all threads) in nanoseconds.
std::int64_t process_cpu_ns();
/// Peak resident set size in MiB.
double peak_rss_mb();
/// Hand freed heap pages back to the kernel, so a torn-down set-up does
/// not leave the next one's peak resident size to allocator chance.
void release_free_memory();

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// -------------------------------------------------------------- statistics

double median(std::vector<double> v);
/// The highest-percentile sample with at least ten samples above it (the
/// eleventh largest); the median when there are fewer than 40 samples,
/// because a percentile with so few samples beyond it is no tail.
double tail(std::vector<double> v);
double mean(const std::vector<double>& v);

// ------------------------------------------------------------------ tracer

/// One recorded span.  Spans of one round share `round`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top level
  std::uint32_t round = 0;
  double ms() const { return ns_to_ms(end_ns - start_ns); }
};

/// In-memory span recorder.  Thread-safe: poll-pool workers record the
/// spans of the services they call.  Disabled tracers record nothing and
/// cost one branch per span.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  void set_round(std::uint32_t round) {
    std::lock_guard lock(mutex_);
    round_ = round;
  }

  /// Open a span; returns its id (0 when disabled).
  std::uint64_t begin(std::string name, std::uint64_t parent);
  void end(std::uint64_t id);

  /// Parent for spans opened on other threads while a poll runs.
  void set_active(std::uint64_t id) {
    active_.store(id, std::memory_order_relaxed);
  }
  std::uint64_t active() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Spans of one round (copy; the recorder keeps everything for export).
  std::vector<Span> round_spans(std::uint32_t round) const;
  /// Write every span as TSV; returns false on I/O failure.
  bool write(const std::string& path) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t parent)
        : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint64_t id_;
  };

 private:
  std::atomic<bool> enabled_{false};
  std::uint32_t round_ = 0;  ///< guarded by mutex_ when read in begin()
  std::atomic<std::uint64_t> active_{0};
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  ///< id -> index in spans_
};

/// Self time of `span`: its duration minus the part of it covered by the
/// union of `children` (intervals clipped to the span).
double self_ms(const Span& span, const std::vector<const Span*>& children);

/// Sum of self times per span-name prefix (text before the first ':'),
/// over the given spans, keyed by prefix.
std::map<std::string, double> self_by_layer(const std::vector<Span>& spans);

// -------------------------------------------------------------------- json

/// Minimal JSON value, enough to check the gateway's bodies.
struct Json {
  enum class Kind { null, boolean, number, string, array, object } kind =
      Kind::null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* get(std::string_view key) const;
};

/// Parse a JSON document; nullopt on any syntax error.
std::optional<Json> parse_json(std::string_view text);

}  // namespace perfbench
