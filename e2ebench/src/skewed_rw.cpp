// skewed_rw: one closed-loop client mixing reads, writes and churn on a
// replicated, rebalancing index.
//
// N = 10 000 peers, 100 000 uniform objects on [0, 1000]. 80% of
// operations are synchronous range queries over Zipf(1.0)-chosen bins
// (200 bins of width 5, as in bench_load_balance), 15% publish Zipf
// values, 5% are membership changes alternating FissioneNetwork::join and
// a graceful leave of a random peer, each followed by
// ReplicaSet::on_membership and Rebalancer::on_membership. Replication and
// rebalancing use bench_load_balance's configs; a ServiceLoadMap feeds the
// rebalancer. Every public call is timed on its own.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "armada/armada.h"
#include "fissione/network.h"
#include "obs/trace.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"
#include "replay.h"
#include "sim/event_queue.h"
#include "sim/workload.h"
#include "support.h"
#include "util/check.h"
#include "util/rng.h"

namespace e2e {
namespace {

using namespace armada;

constexpr double kDomainLo = 0.0;
constexpr double kDomainHi = 1000.0;
constexpr std::size_t kBins = 200;
constexpr double kBinWidth = (kDomainHi - kDomainLo) / kBins;

struct Spec {
  std::size_t peers = 0;
  std::size_t objects = 0;
  std::size_t ops = 0;  ///< per round
};

Spec spec_for(bool smoke) {
  return smoke ? Spec{500, 5000, 200} : Spec{10000, 100000, 4800};
}

enum class Kind : std::uint8_t { kRead, kPublish, kJoin, kLeave };

struct Op {
  Kind kind = Kind::kRead;
  std::size_t bin = 0;       ///< read: [bin * 5, bin * 5 + 5]
  double value = 0.0;        ///< publish
  std::uint64_t pick = 0;    ///< read issuer / leaving peer, mod alive count
};

struct Inputs {
  std::uint64_t net_seed = 0;
  std::vector<double> values;
  std::vector<Op> ops;
  std::size_t reads = 0;
};

/// Seeds the overlay and the initial objects; --seed drives the operation
/// stream, so runs with different seeds share one world (see
/// frt_workloads.cpp).
constexpr std::uint64_t kWorldSeed = 2006;

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Rng world(kWorldSeed);
  Inputs in;
  in.net_seed = world.engine()();
  for (std::size_t i = 0; i < spec.objects; ++i) {
    in.values.push_back(world.next_double(kDomainLo, kDomainHi));
  }
  Rng rng(seed);
  sim::ZipfValues read_bins({kDomainLo, kDomainHi}, kBins, 1.0, Rng(rng.engine()()));
  sim::ZipfValues writes({kDomainLo, kDomainHi}, kBins, 1.0, Rng(rng.engine()()));
  // Exact 80/15/5 proportions in a seeded order: the costly membership
  // changes would otherwise vary by their binomial count from seed to seed.
  std::vector<Kind> kinds(spec.ops, Kind::kRead);
  const std::size_t publishes = spec.ops * 15 / 100;
  const std::size_t churn = spec.ops * 5 / 100;
  std::fill_n(kinds.begin(), publishes, Kind::kPublish);
  std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(publishes), churn, Kind::kJoin);
  rng.shuffle(kinds);
  bool join_next = true;
  for (const Kind kind : kinds) {
    Op op;
    op.kind = kind;
    op.pick = rng.engine()();
    if (kind == Kind::kRead) {
      op.bin = std::min(kBins - 1,
                        static_cast<std::size_t>((read_bins.next() - kDomainLo) / kBinWidth));
      ++in.reads;
    } else if (kind == Kind::kPublish) {
      op.value = writes.next();
    } else {
      op.kind = join_next ? Kind::kJoin : Kind::kLeave;
      join_next = !join_next;
    }
    in.ops.push_back(op);
  }
  return in;
}

struct World {
  std::unique_ptr<fissione::FissioneNetwork> net;
  std::unique_ptr<core::ArmadaIndex> index;
  fissione::ServiceLoadMap load;
  double build_s = 0.0;
  double setup_s = 0.0;
};

std::unique_ptr<World> set_up(const Spec& spec, const Inputs& in) {
  auto w = std::make_unique<World>();
  const auto t0 = Clock::now();
  w->net = std::make_unique<fissione::FissioneNetwork>(
      fissione::FissioneNetwork::build(spec.peers, in.net_seed));
  const auto t1 = Clock::now();
  w->index = std::make_unique<core::ArmadaIndex>(
      core::ArmadaIndex::single(*w->net, {kDomainLo, kDomainHi}));
  for (std::size_t i = 0; i < in.values.size(); ++i) {
    if (w->index->publish(in.values[i]) != i) {
      throw CheckFailure(static_cast<long long>(i), "publish returned a wrong handle");
    }
  }
  // bench_load_balance's replication and rebalancing configs.
  replica::ReplicationConfig rcfg;
  rcfg.max_replicas = 8;
  rcfg.region_prefix_len = 4;
  rcfg.hot_threshold = std::max(4.0, static_cast<double>(in.reads) / 100.0);
  rcfg.cool_threshold = rcfg.hot_threshold / 8.0;
  rcfg.cache_ttl = 64;
  w->index->enable_replication(rcfg);
  rebalance::RebalanceConfig bcfg;
  bcfg.trigger_load = 2.5;
  bcfg.target_load = 1.25;
  bcfg.sweep_interval = 8;
  bcfg.cooldown = 32;
  bcfg.max_inflight = 8;
  w->index->enable_rebalancing(bcfg);
  w->net->set_service_load(&w->load);
  const auto t2 = Clock::now();
  w->build_s = seconds_between(t0, t1);
  w->setup_s = seconds_between(t0, t2);
  return w;
}

enum class Mode {
  kUntraced,  ///< ArmadaIndex::range_query: the measured path
  kTraced,    ///< the same, hop tracing on and benchmark spans recorded
  kCounting,  ///< Pira::query with a counting ObjectFilter
};

struct Pass {
  std::vector<double> op_s;
  double host_s = 0.0;
  std::vector<std::uint64_t> hashes;  ///< per op
  std::vector<sim::QueryStats> read_stats;
  double publish_s = 0.0;
  double join_s = 0.0;
  double leave_s = 0.0;
  double replica_s = 0.0;
  double rebalance_s = 0.0;
  std::uint64_t publishes = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t rewired = 0;
  std::uint64_t filter_calls = 0;
  std::uint64_t filter_matches = 0;
  Fingerprint fp;
};

/// Truth per read bin by global scan, kept current across publishes.
class BinTruth {
 public:
  explicit BinTruth(const ScanOracle& oracle) : oracle_(oracle), bins_(kBins) {}

  const std::vector<std::uint64_t>& get(std::size_t bin) {
    if (!bins_[bin].has_value()) {
      const double lo = kDomainLo + static_cast<double>(bin) * kBinWidth;
      bins_[bin] = oracle_.matches(lo, lo + kBinWidth);
      // Handles published since set-up, in handle order.
      for (const auto& [h, v] : published_) {
        if (lo <= v && v <= lo + kBinWidth) {
          bins_[bin]->push_back(h);
        }
      }
    }
    return *bins_[bin];
  }
  void on_publish(std::uint64_t handle, double value) {
    published_.emplace_back(handle, value);
    for (std::size_t b = 0; b < kBins; ++b) {
      const double lo = kDomainLo + static_cast<double>(b) * kBinWidth;
      if (bins_[b].has_value() && lo <= value && value <= lo + kBinWidth) {
        bins_[b]->push_back(handle);
      }
    }
  }

 private:
  const ScanOracle& oracle_;
  std::vector<std::optional<std::vector<std::uint64_t>>> bins_;
  std::vector<std::pair<std::uint64_t, double>> published_;
};

std::uint64_t mix_hash(std::uint64_t a, std::uint64_t b) {
  return (a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

/// Runs the round's operations on `w`. With `truth`, every read is checked
/// right after it returns (outside its timer).
Pass run_pass(World& w, const Inputs& in, Mode mode, BinTruth* truth,
              SpanLog* spans, std::uint64_t parent) {
  Pass p;
  fissione::FissioneNetwork& net = *w.net;
  core::ArmadaIndex& index = *w.index;
  const auto span = [&](const char* name, std::uint64_t under,
                        Clock::time_point a, Clock::time_point b) {
    return spans != nullptr ? spans->add(name, under, a, b) : 0;
  };
  // A library CHECK inside an operation is reported with its index.
  std::size_t i = 0;
  try {
    for (; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      const auto t0 = Clock::now();
      std::uint64_t h = 0;
      if (op.kind == Kind::kRead) {
        const std::vector<fissione::PeerId>& alive = net.alive_peers();
        const fissione::PeerId issuer = alive[op.pick % alive.size()];
        const double lo = kDomainLo + static_cast<double>(op.bin) * kBinWidth;
        const double hi = lo + kBinWidth;
        RangeQueryResult r;
        if (mode == Mode::kCounting) {
          const core::ArmadaIndex* idx = &index;
          Pass* counts = &p;
          r = index.pira().query(issuer, lo, hi,
                                 [idx, counts, lo, hi](const fissione::StoredObject& obj) {
                                   ++counts->filter_calls;
                                   const double v = idx->attributes(obj.payload)[0];
                                   const bool match = !(v < lo || v > hi);
                                   counts->filter_matches += match ? 1u : 0u;
                                   return match;
                                 });
        } else {
          r = index.range_query(issuer, lo, hi);
        }
        const auto t1 = Clock::now();
        p.op_s.push_back(seconds_between(t0, t1));
        span("armada.range_query", span("op.read", parent, t0, t1), t0, t1);
        if (truth != nullptr) {
          check_answer(r, truth->get(op.bin), net.peer(issuer).peer_id.length(),
                       static_cast<long long>(i));
        }
        p.read_stats.push_back(r.stats);
        h = result_hash(r);
      } else if (op.kind == Kind::kPublish) {
        const std::uint64_t handle = index.publish(op.value);
        const auto t1 = Clock::now();
        p.publish_s += seconds_between(t0, t1);
        p.op_s.push_back(seconds_between(t0, t1));
        span("armada.publish", span("op.publish", parent, t0, t1), t0, t1);
        ++p.publishes;
        if (truth != nullptr) {
          truth->on_publish(handle, op.value);
        }
        h = handle;
      } else {
        fissione::FissioneNetwork::MembershipReport report;
        const bool join = op.kind == Kind::kJoin;
        if (join) {
          net.join(&report);
        } else {
          const std::vector<fissione::PeerId>& alive = net.alive_peers();
          net.leave(alive[op.pick % alive.size()], &report);
        }
        const auto t1 = Clock::now();
        sim::Simulator sim;
        index.replicas()->on_membership(sim);
        const auto t2 = Clock::now();
        index.rebalancer()->on_membership(sim);
        const auto t3 = Clock::now();
        sim.run();
        const auto t4 = Clock::now();
        (join ? p.join_s : p.leave_s) += seconds_between(t0, t1);
        ++(join ? p.joins : p.leaves);
        p.replica_s += seconds_between(t1, t2);
        p.rebalance_s += seconds_between(t2, t3);
        p.rewired += report.rewired.size();
        p.op_s.push_back(seconds_between(t0, t4));
        if (spans != nullptr) {
          const std::uint64_t id = span(join ? "op.join" : "op.leave", parent, t0, t4);
          span(join ? "fissione.join" : "fissione.leave", id, t0, t1);
          span("replica.on_membership", id, t1, t2);
          span("rebalance.on_membership", id, t2, t3);
          span("sim.run", id, t3, t4);
        }
        h = mix_hash(report.rewired.size(), report.handoffs.size());
        h = mix_hash(h, report.origin);
      }
      p.host_s += p.op_s.back();
      p.hashes.push_back(h);
    }
  } catch (const armada::CheckError& e) {
    static const char* const kNames[] = {"read", "publish", "join", "leave"};
    throw CheckFailure(static_cast<long long>(i),
                       std::string(kNames[static_cast<int>(in.ops[i].kind)]) +
                           ": library check failed: " + e.what());
  }

  add_query_stats(p.fp, p.read_stats, in.ops.size());
  const replica::ReplicaStats& rs = index.replicas()->stats();
  const rebalance::RebalanceStats& bs = index.rebalancer()->stats();
  for (const auto& [name, v] : std::initializer_list<std::pair<const char*, std::uint64_t>>{
           {"replica.queries", rs.queries},
           {"replica.regions_replicated", rs.regions_replicated},
           {"replica.regions_torn_down", rs.regions_torn_down},
           {"replica.placement_messages", rs.placement_messages},
           {"replica.repairs", rs.repairs},
           {"replica.replica_routes", rs.replica_routes},
           {"replica.cache_hits", rs.cache_hits},
           {"replica.cache_misses", rs.cache_misses},
           {"replica.cache_invalidated_publish", rs.cache_invalidated_publish},
           {"replica.cache_invalidated_churn", rs.cache_invalidated_churn},
           {"rebalance.sweeps", bs.sweeps},
           {"rebalance.migrations_started", bs.migrations_started},
           {"rebalance.migrations_completed", bs.migrations_completed},
           {"rebalance.migrations_cancelled", bs.migrations_cancelled},
           {"rebalance.objects_migrated", bs.objects_migrated},
           {"fissione.rewired", p.rewired},
           {"fissione.peers", net.num_peers()},
           {"fissione.objects", net.total_objects()},
           {"fissione.delegations", net.delegations().size()}}) {
    p.fp.add(name, static_cast<double>(v));
  }
  return p;
}

Report run_untraced(const Options& opts, const Spec& spec, const Inputs& in) {
  const ScanOracle oracle(in.values);
  double migrations = 0.0;
  double cache_hits = 0.0;
  Report rep = run_rounds(
      opts,
      [&](std::size_t r) {
        std::unique_ptr<World> w = set_up(spec, in);
        std::optional<BinTruth> truth;
        if (r == 0) {
          truth.emplace(oracle);
        }
        Pass p = run_pass(*w, in, Mode::kUntraced, truth ? &*truth : nullptr,
                          nullptr, 0);
        migrations = p.fp.get("rebalance.migrations_completed");
        cache_hits = p.fp.get("replica.cache_hits");
        return Round{w->setup_s, p.op_s,
                     std::vector<std::size_t>(p.op_s.size(), 1), p.fp, p.hashes};
      },
      [&] { return set_up(spec, in)->setup_s; });
  rep.note(std::to_string(in.reads) + " reads per round; migrations completed " +
           std::to_string(migrations) + ", cache hits " + std::to_string(cache_hits));
  return rep;
}

Report run_traced(const Options& opts, const Spec& spec, const Inputs& in,
                  SpanLog& spans) {
  const ScanOracle oracle(in.values);
  std::vector<double> build_s;
  const auto pass = [&](const char* name, Mode mode, BinTruth* truth,
                        const std::shared_ptr<obs::TraceRecorder>& recorder) {
    const auto ts = Clock::now();
    std::unique_ptr<World> w = set_up(spec, in);
    build_s.push_back(w->build_s);
    const auto t0 = Clock::now();
    spans.add("setup", 0, ts, t0);
    const std::uint64_t id = spans.add(name, 0, t0, t0);
    if (recorder != nullptr) {
      w->net->transport().attach_trace(recorder);
    }
    Pass p = run_pass(*w, in, mode, truth, &spans, id);
    w->net->transport().detach_trace();
    spans.close(id, Clock::now());
    return p;
  };

  BinTruth truth(oracle);
  const Pass untraced = pass("pass.untraced", Mode::kUntraced, &truth, nullptr);
  obs::TraceConfig tcfg;
  tcfg.sample_period = 1;
  tcfg.seed = opts.seed;
  auto recorder = std::make_shared<obs::TraceRecorder>(tcfg);
  const Pass traced = pass("pass.traced", Mode::kTraced, nullptr, recorder);
  expect_same(untraced.fp, traced.fp, "traced vs untraced");
  expect_same(untraced.hashes, traced.hashes, "traced vs untraced");
  if (const std::string bad = recorder->validate(); !bad.empty()) {
    throw CheckFailure(-1, "trace is malformed: " + bad);
  }
  const Pass counting = pass("pass.pira", Mode::kCounting, nullptr, nullptr);
  expect_same(untraced.fp, counting.fp, "Pira::query replay");
  expect_same(untraced.hashes, counting.hashes, "Pira::query replay");

  // Per-call prices on a fresh world.
  std::unique_ptr<World> w = set_up(spec, in);
  build_s.push_back(w->build_s);
  const NamingPrices naming = price_naming(*w->net, w->index->naming_tree(),
                                           in.values, opts.seed, spans);

  const Pass& t = traced;  // per-call timings of the traced pass
  const double reads = static_cast<double>(t.read_stats.size());
  const double churn = static_cast<double>(t.joins + t.leaves);
  const Fingerprint& fp = untraced.fp;
  const double hits = fp.get("replica.cache_hits");
  const double misses = fp.get("replica.cache_misses");
  Report rep;
  rep.attempted = in.ops.size();
  rep.add("armada.scan_objects_per_query",
          static_cast<double>(counting.filter_calls) / reads);
  rep.add("armada.scan_match_ratio",
          counting.filter_calls == 0
              ? 0.0
              : static_cast<double>(counting.filter_matches) /
                    static_cast<double>(counting.filter_calls));
  rep.add("armada.publish_us",
          t.publishes == 0 ? 0.0 : t.publish_s / static_cast<double>(t.publishes) * 1e6);
  rep.add("kautz.single_hash_ns", naming.single_hash_ns);
  rep.add("fissione.join_us", t.joins == 0 ? 0.0 : t.join_s / static_cast<double>(t.joins) * 1e6);
  rep.add("fissione.leave_us",
          t.leaves == 0 ? 0.0 : t.leave_s / static_cast<double>(t.leaves) * 1e6);
  rep.add("fissione.rewired_per_churn",
          churn == 0 ? 0.0 : static_cast<double>(t.rewired) / churn);
  rep.add("fissione.route_ns", naming.route_ns);
  rep.add("fissione.build_s", median(build_s));
  rep.add("replica.on_membership_us", churn == 0 ? 0.0 : t.replica_s / churn * 1e6);
  rep.add("rebalance.on_membership_us", churn == 0 ? 0.0 : t.rebalance_s / churn * 1e6);
  rep.add("replica.invalidations_per_write",
          t.publishes == 0 ? 0.0
                           : fp.get("replica.cache_invalidated_publish") /
                                 static_cast<double>(t.publishes));
  rep.add("replica.cache_hit_ratio", hits + misses == 0 ? 0.0 : hits / (hits + misses));
  rep.add("replica.replica_routes_per_query", fp.get("replica.replica_routes") / reads);
  rep.add("replica.placement_messages", fp.get("replica.placement_messages"));
  rep.add("rebalance.migrations_completed", fp.get("rebalance.migrations_completed"));
  rep.add("rebalance.objects_migrated", fp.get("rebalance.objects_migrated"));
  // No queueing network is installed here: the congestion currency is
  // measured, and all-zero.
  const net::CongestionStats& cs = w->net->congestion();
  rep.add("net.queue_delay_mean", cs.queue_delay_mean());
  rep.add("net.ingress_depth_peak", static_cast<double>(cs.ingress_depth_peak));
  rep.add("net.service_utilization", 0.0);
  rep.add("net.shed_frac", 0.0);
  rep.add("net.departures_saved_frac", 0.0);
  rep.add("obs.trace_overhead_ratio", traced.host_s / untraced.host_s);
  rep.add("obs.spans_per_query",
          static_cast<double>(recorder->spans_recorded()) / static_cast<double>(in.ops.size()));
  for (const char* name :
       {"kautz.viable_evals_per_query", "kautz.intersects_prefix_ns",
        "armada.useful_eval_ratio", "armada.frt_us_per_query",
        "armada.frt_self_us_per_query", "sim.events_per_query",
        "sim.equal_time_batch_mean", "sim.dispatch_ns_per_event",
        "net.deliver_ns"}) {
    rep.add_undefined(name);
  }
  rep.digest = fp.digest();
  rep.note("traced, untraced and Pira-level passes agree bitwise on " +
           std::to_string(in.ops.size()) + " operations; " +
           std::to_string(t.joins) + " joins, " + std::to_string(t.leaves) +
           " leaves, " + std::to_string(t.publishes) + " publishes");
  return rep;
}

}  // namespace

Report run_skewed_rw(const Options& opts, SpanLog& spans) {
  const Spec spec = spec_for(opts.smoke);
  const Inputs in = make_inputs(spec, opts.seed);
  return opts.trace ? run_traced(opts, spec, in, spans)
                    : run_untraced(opts, spec, in);
}

}  // namespace e2e
