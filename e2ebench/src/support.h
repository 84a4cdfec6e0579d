// Shared plumbing of the repository benchmark: options, the metric report,
// host clocks, answer/bound checks, determinism fingerprints and the
// benchmark-level span log.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "armada/range_query.h"
#include "sim/metrics.h"

namespace e2e {

using armada::core::RangeQueryResult;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes, same code path and metric names (the benchmark's tests).
  bool smoke = false;
  /// Where the traced run writes its benchmark-level spans (JSONL).
  std::string spans_out;
};

/// A failed answer, bound, determinism or replay check. `op` is the index
/// of the operation in its round (or -1 when the check spans the round).
struct CheckFailure : std::runtime_error {
  CheckFailure(long long op_index, const std::string& what)
      : std::runtime_error(what), op(op_index) {}
  long long op;
};

/// Everything a workload hands back to main: metric values by name (main
/// attaches units and checks the set is complete), the operation counts of
/// the final JSON line, and human-readable notes.
struct Report {
  std::map<std::string, double> metrics;
  /// Per-layer metrics with no meaning on this workload, reported as 0.
  std::vector<std::string> undefined;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  /// Hex digest of every simulated and count metric of one round; equal
  /// digests for one seed across --trace 0 and --trace 1 runs.
  std::string digest;

  void add(const std::string& name, double value) { metrics[name] = value; }
  void add_undefined(const std::string& name) {
    metrics[name] = 0.0;
    undefined.push_back(name);
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

// --- host clock -------------------------------------------------------------

/// CPU time of the calling thread (user + system), in ns. The benchmark is
/// one thread that never blocks, so this is the host time its work takes,
/// without the time the thread waits while the host runs something else.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static time_point now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<rep>(ts.tv_sec) * 1000000000 + ts.tv_nsec));
  }
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Keeps a timed loop's results observable so the loop is not optimised out.
void keep(std::uint64_t value);

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

// --- answer and bound checks ------------------------------------------------

/// Ground truth by global scan over the published values: handles of every
/// object with lo <= value <= hi, sorted.
class ScanOracle {
 public:
  /// `values[h]` is the attribute of handle h.
  explicit ScanOracle(const std::vector<double>& values);
  std::vector<std::uint64_t> matches(double lo, double hi) const;

 private:
  std::vector<std::pair<double, std::uint64_t>> sorted_;
};

/// The paper's invariants for one answer: a full-coverage answer equals
/// `truth`, a partial one is a subset of it, and delay <= |PeerID(issuer)|.
/// Throws CheckFailure(op).
void check_answer(const RangeQueryResult& r,
                  const std::vector<std::uint64_t>& truth,
                  std::size_t issuer_id_length, long long op);

/// Bitwise identity of one answer: stats, destinations (in arrival order)
/// and matches.
std::uint64_t result_hash(const RangeQueryResult& r);

// --- determinism ------------------------------------------------------------

/// Named simulated and count values of one round; two rounds over the
/// same inputs must produce identical fingerprints.
class Fingerprint {
 public:
  void add(const std::string& name, double value) {
    values_.emplace_back(name, value);
  }
  double get(const std::string& name) const;
  const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }
  std::string digest() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Throws CheckFailure naming the first differing entry.
void expect_same(const Fingerprint& want, const Fingerprint& got,
                 const std::string& what);
void expect_same(const std::vector<std::uint64_t>& want,
                 const std::vector<std::uint64_t>& got,
                 const std::string& what);

/// Sim-side summary of a set of query answers, added to `fp` as
/// sim_delay_mean, sim_latency_p99, messages_per_query, full_answer_frac
/// (over `attempted` operations) plus raw sums.
void add_query_stats(Fingerprint& fp,
                     const std::vector<armada::sim::QueryStats>& stats,
                     std::size_t attempted);

// --- untraced rounds ---------------------------------------------------------

/// One round of an untraced run: a fresh set-up, then the workload's fixed
/// operation list with each operation (or open-loop slice) timed.
struct Round {
  double setup_s = 0.0;
  /// Host seconds of each timed unit: one operation (closed loop), one
  /// slice of arrivals (open loop), or the final drain of an open loop.
  std::vector<double> unit_s;
  /// Operations each unit completes or admits; 0 for a drain, which counts
  /// toward ops_per_s but is no per-operation sample.
  std::vector<std::size_t> unit_ops;
  Fingerprint fp;            ///< simulated and count metrics
  std::vector<std::uint64_t> hashes;  ///< per-operation answer identity
};

/// The untraced run: repeats `round(r)` until the timed phases come as near
/// --seconds of CPU time as whole rounds allow (or the rounds have taken
/// twice that in wall time, when the host starves the thread), with at
/// least three rounds; every round must reproduce round
/// 0's fingerprint and answers bitwise. Each round sets up anew;
/// `setup_only()` (one more timed set-up) tops the set-ups up to a second
/// in total, so setup_s is a median over many when set-up is cheap.
/// Reports the end-to-end metrics: host-time ones from each timed unit's
/// fastest round, simulated ones from round 0's fingerprint.
Report run_rounds(const Options& opts,
                  const std::function<Round(std::size_t)>& round,
                  const std::function<double()>& setup_only);

// --- benchmark-level spans --------------------------------------------------

/// In-memory span log of the traced run: one span per operation with a
/// child per layer call, instants in ns of thread CPU time since the log
/// began.
/// Written out once, at exit.
class SpanLog {
 public:
  SpanLog();
  std::uint64_t add(const char* name, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end);
  /// Set the end of a span added before its end was known.
  void close(std::uint64_t id, Clock::time_point end);
  std::size_t size() const { return spans_.size(); }
  /// One JSON object per line; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- workloads ----------------------------------------------------------------

Report run_paper_sweep(const Options& opts, SpanLog& spans);
Report run_congested_async(const Options& opts, SpanLog& spans);
Report run_skewed_rw(const Options& opts, SpanLog& spans);

}  // namespace e2e
