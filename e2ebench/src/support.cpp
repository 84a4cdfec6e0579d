#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace e2e {

namespace {
volatile std::uint64_t g_kept = 0;
}  // namespace

void keep(std::uint64_t value) { g_kept = g_kept + value; }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[idx];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

ScanOracle::ScanOracle(const std::vector<double>& values) {
  sorted_.reserve(values.size());
  for (std::uint64_t h = 0; h < values.size(); ++h) {
    sorted_.emplace_back(values[h], h);
  }
  std::sort(sorted_.begin(), sorted_.end());
}

std::vector<std::uint64_t> ScanOracle::matches(double lo, double hi) const {
  auto first = std::lower_bound(
      sorted_.begin(), sorted_.end(), lo,
      [](const auto& e, double v) { return e.first < v; });
  std::vector<std::uint64_t> out;
  for (auto it = first; it != sorted_.end() && it->first <= hi; ++it) {
    out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void check_answer(const RangeQueryResult& r,
                  const std::vector<std::uint64_t>& truth,
                  std::size_t issuer_id_length, long long op) {
  if (r.stats.delay > static_cast<double>(issuer_id_length)) {
    throw CheckFailure(op, "delay " + std::to_string(r.stats.delay) +
                               " exceeds |PeerID(issuer)| = " +
                               std::to_string(issuer_id_length));
  }
  std::vector<std::uint64_t> got = r.matches;
  std::sort(got.begin(), got.end());
  if (r.stats.coverage >= 1.0) {
    if (got != truth) {
      throw CheckFailure(op, "full-coverage answer (" +
                                 std::to_string(got.size()) +
                                 " matches) differs from the global scan (" +
                                 std::to_string(truth.size()) + ")");
    }
  } else if (!std::includes(truth.begin(), truth.end(), got.begin(),
                            got.end())) {
    throw CheckFailure(op, "partial answer is not a subset of the scan");
  }
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

}  // namespace

std::uint64_t result_hash(const RangeQueryResult& r) {
  std::uint64_t h = kFnvOffset;
  const armada::sim::QueryStats& s = r.stats;
  for (const std::uint64_t v :
       {s.messages, s.bytes_on_wire, s.shed, s.hedges, s.dest_peers, s.results,
        s.replica_routes, s.cache_hits, bits_of(s.delay), bits_of(s.latency),
        bits_of(s.queue_delay), bits_of(s.coverage)}) {
    mix(h, v);
  }
  mix(h, r.destinations.size());
  for (const auto d : r.destinations) {
    mix(h, d);
  }
  mix(h, r.matches.size());
  for (const auto m : r.matches) {
    mix(h, m);
  }
  return h;
}

double Fingerprint::get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) {
      return v;
    }
  }
  throw std::logic_error("fingerprint has no entry " + name);
}

std::string Fingerprint::digest() const {
  std::uint64_t h = kFnvOffset;
  for (const auto& [n, v] : values_) {
    for (const char c : n) {
      mix(h, static_cast<unsigned char>(c));
    }
    mix(h, bits_of(v));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void expect_same(const Fingerprint& want, const Fingerprint& got,
                 const std::string& what) {
  const auto& a = want.values();
  const auto& b = got.values();
  if (a.size() != b.size()) {
    throw CheckFailure(-1, what + ": fingerprints have different keys");
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || bits_of(a[i].second) != bits_of(b[i].second)) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s: %s is %.17g, expected %.17g",
                    what.c_str(), b[i].first.c_str(), b[i].second,
                    a[i].second);
      throw CheckFailure(-1, buf);
    }
  }
}

void expect_same(const std::vector<std::uint64_t>& want,
                 const std::vector<std::uint64_t>& got,
                 const std::string& what) {
  if (want.size() != got.size()) {
    throw CheckFailure(-1, what + ": different number of operations");
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      throw CheckFailure(static_cast<long long>(i),
                         what + ": answer differs bitwise");
    }
  }
}

void add_query_stats(Fingerprint& fp,
                     const std::vector<armada::sim::QueryStats>& stats,
                     std::size_t attempted) {
  double delay = 0.0;
  double messages = 0.0;
  double full = 0.0;
  double shed = 0.0;
  double dests = 0.0;
  double results = 0.0;
  std::vector<double> latency;
  latency.reserve(stats.size());
  for (const auto& s : stats) {
    delay += s.delay;
    messages += static_cast<double>(s.messages);
    full += s.coverage >= 1.0 ? 1.0 : 0.0;
    shed += static_cast<double>(s.shed);
    dests += static_cast<double>(s.dest_peers);
    results += static_cast<double>(s.results);
    latency.push_back(s.latency);
  }
  const double n = stats.empty() ? 1.0 : static_cast<double>(stats.size());
  const double partial = static_cast<double>(stats.size()) - full;
  fp.add("sim_delay_mean", delay / n);
  fp.add("sim_latency_p99", percentile(latency, 99.0));
  fp.add("messages_per_query", messages / n);
  fp.add("full_answer_frac",
         1.0 - partial / static_cast<double>(std::max<std::size_t>(1, attempted)));
  fp.add("queries", static_cast<double>(stats.size()));
  fp.add("messages", messages);
  fp.add("shed", shed);
  fp.add("dest_peers", dests);
  fp.add("results", results);
}

Report run_rounds(const Options& opts,
                  const std::function<Round(std::size_t)>& round,
                  const std::function<double()>& setup_only) {
  const std::size_t min_rounds = 3;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> unit_s;  // [round][unit]
  double host_s = 0.0;
  Round first;
  std::string round_times;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto wall_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
        .count();
  };
  // After the minimum, another round starts only if it is expected to end
  // nearer --seconds than the rounds so far.
  const auto another_round = [&] {
    const double mean_round_s = host_s / static_cast<double>(unit_s.size());
    return host_s + 0.5 * mean_round_s < opts.seconds && wall_s() < 2.0 * opts.seconds;
  };
  while (unit_s.size() < min_rounds || (!opts.smoke && another_round())) {
    Round r = round(unit_s.size());
    setup_s.push_back(r.setup_s);
    double round_s = 0.0;
    for (const double s : r.unit_s) {
      round_s += s;
    }
    host_s += round_s;
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", round_s);
    round_times += buf;
    if (unit_s.empty()) {
      first = r;
    } else {
      const std::string what = "round " + std::to_string(unit_s.size());
      expect_same(first.fp, r.fp, what);
      expect_same(first.hashes, r.hashes, what);
    }
    unit_s.push_back(std::move(r.unit_s));
  }
  const std::size_t max_setups = opts.smoke ? min_rounds : 100;
  double setup_total = 0.0;
  for (const double s : setup_s) {
    setup_total += s;
  }
  while (setup_total < 1.0 && setup_s.size() < max_setups) {
    setup_s.push_back(setup_only());
    setup_total += setup_s.back();
  }
  // Every round runs the same operations, so each unit has one host time
  // per round. Contention from other work on the host only ever adds time,
  // in bursts shorter than a round, so a unit's fastest round is its
  // steadiest estimate.
  std::size_t ops = 0;
  double total_s = 0.0;
  std::vector<double> per_op;
  for (std::size_t i = 0; i < first.unit_ops.size(); ++i) {
    std::vector<double> samples;
    for (const auto& times : unit_s) {
      samples.push_back(times[i]);
    }
    const double unit = *std::min_element(samples.begin(), samples.end());
    total_s += unit;
    ops += first.unit_ops[i];
    if (first.unit_ops[i] > 0) {
      per_op.push_back(unit / static_cast<double>(first.unit_ops[i]));
    }
  }
  Report rep;
  rep.attempted = unit_s.size() * ops;
  rep.add("ops_per_s", static_cast<double>(ops) / total_s);
  rep.add("op_p50_us", percentile(per_op, 50.0) * 1e6);
  rep.add("op_p99_us", percentile(per_op, 99.0) * 1e6);
  rep.add("setup_s", median(setup_s));
  rep.add("peak_rss_mb", peak_rss_mb());
  for (const char* name : {"sim_delay_mean", "sim_latency_p99",
                           "messages_per_query", "full_answer_frac"}) {
    rep.add(name, first.fp.get(name));
  }
  rep.digest = first.fp.digest();
  rep.note(std::to_string(unit_s.size()) + " rounds of " + std::to_string(ops) +
           " operations, " + std::to_string(host_s) + " thread CPU s timed (" +
           std::to_string(wall_s()) + " wall s), " +
           std::to_string(setup_s.size()) + " set-ups");
  rep.note("thread CPU s per round:" + round_times);
  rep.note("ops_per_s, op_p50_us and op_p99_us use each timed unit's fastest "
           "host time across rounds; " + std::to_string(per_op.size()) +
           " per-operation samples");
  return rep;
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

std::uint64_t SpanLog::add(const char* name, std::uint64_t parent,
                           Clock::time_point start, Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, name, ns(start), ns(end)});
  return id;
}

void SpanLog::close(std::uint64_t id, Clock::time_point end) {
  spans_[id - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace e2e
