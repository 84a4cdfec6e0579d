// The two range-query-only workloads.
//
// paper_sweep: the paper's §4.3.3 setting (N = 2000, 2N uniform objects on
// [0, 1000], ConstantHop, no queueing), one client calling
// ArmadaIndex::range_query back to back over fig5's range sizes.
//
// congested_async: an open loop on one shared simulator — Poisson
// arrivals of ArmadaIndex::range_query_async over N = 20 000 peers and
// 200 000 objects, RttMatrix latencies, and the congested queueing config
// with flow control, so some answers come back partial.
//
// The untraced run repeats rounds (fresh set-up + the fixed query list)
// until the timed phases add up to --seconds. The traced run makes one
// set-up and drives the same queries through each layer in turn.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "armada/armada.h"
#include "armada/frt_search.h"
#include "fissione/network.h"
#include "net/latency_model.h"
#include "net/queueing.h"
#include "obs/trace.h"
#include "replay.h"
#include "sim/event_queue.h"
#include "support.h"
#include "util/rng.h"

namespace e2e {
namespace {

using namespace armada;

constexpr double kDomainLo = 0.0;
constexpr double kDomainHi = 1000.0;
constexpr double kFig5Sizes[] = {2, 10, 50, 100, 150, 200, 250, 300};
/// Open-loop host time is sliced into runs of this many arrivals.
constexpr std::size_t kSlice = 25;
/// Seeds the overlay, RTT matrix and initial objects: the host cost of a
/// congested run depends strongly on which peers the overlay makes hot, so
/// runs with different --seed share one world and differ in their queries.
constexpr std::uint64_t kWorldSeed = 2006;
/// congested_async's offered load, queries per simulated time unit: past
/// the overlay's service capacity (~58 at 170 messages per query), so
/// backlogs build over a round and 1-2% of answers come back partial.
constexpr double kRate = 100.0;

struct Spec {
  std::size_t peers = 0;
  std::size_t objects = 0;
  std::size_t queries = 0;  ///< per round
  bool open_loop = false;
  double rate = 0.0;        ///< open loop: arrivals per simulated time unit
};

Spec spec_for(bool congested, bool smoke) {
  if (!congested) {
    return smoke ? Spec{200, 400, 16, false, 0.0}
                 : Spec{2000, 4000, 320, false, 0.0};
  }
  // Smoke keeps the per-peer offered load.
  return smoke ? Spec{500, 5000, 60, true, kRate * 500 / 20000}
               : Spec{20000, 200000, 2500, true, kRate};
}

struct Query {
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t issuer_pick = 0;
  double arrival = 0.0;  ///< open loop only
};

/// Everything a run needs, generated before any timing: the overlay, the
/// latency model and the initial objects from kWorldSeed, the queries
/// (positions, sizes, issuers, arrivals) from --seed.
struct Inputs {
  std::uint64_t net_seed = 0;
  std::uint64_t rtt_seed = 0;
  std::vector<double> values;
  std::vector<Query> queries;
};

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Rng world(kWorldSeed);
  Inputs in;
  in.net_seed = world.engine()();
  in.rtt_seed = world.engine()();
  in.values.reserve(spec.objects);
  for (std::size_t i = 0; i < spec.objects; ++i) {
    in.values.push_back(world.next_double(kDomainLo, kDomainHi));
  }
  Rng rng(seed);
  double t = 0.0;
  for (std::size_t q = 0; q < spec.queries; ++q) {
    double size = 0.0;
    if (spec.open_loop) {
      size = std::exp(rng.next_double(0.0, std::log(10.0)));  // log-uniform [1, 10]
      t += -std::log(1.0 - rng.next_double()) / spec.rate;
    } else {
      size = kFig5Sizes[q % std::size(kFig5Sizes)];
    }
    Query query;
    query.lo = rng.next_double(kDomainLo, kDomainHi - size);
    query.hi = query.lo + size;
    query.issuer_pick = rng.engine()();
    query.arrival = t;
    in.queries.push_back(query);
  }
  return in;
}

net::QueueingConfig congested_config() {
  net::QueueingConfig cfg;
  cfg.service_rate = 0.5;
  cfg.link_bandwidth = 1024.0;
  cfg.default_message_bytes = 256;
  cfg.coalesce_window = 0.05;
  cfg.flow.backoff_threshold = 4;
  cfg.flow.backoff = 0.25;
  cfg.flow.admission_limit = 16;
  return cfg;
}

/// One set-up: overlay, index with the initial objects, latency model and
/// queueing config. Not movable (the index refers into the network).
struct World {
  std::unique_ptr<fissione::FissioneNetwork> net;
  std::unique_ptr<core::ArmadaIndex> index;
  std::shared_ptr<const net::LatencyModel> model;
  std::optional<net::QueueingConfig> queueing;
  std::vector<fissione::PeerId> issuers;  ///< per query
  double build_s = 0.0;
  double publish_s = 0.0;
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
  const auto t2 = Clock::now();
  if (spec.open_loop) {
    w->model = std::make_shared<net::RttMatrix>(in.rtt_seed);
    w->net->set_latency_model(w->model);
    w->queueing = congested_config();
    w->net->install_queueing(*w->queueing);
  } else {
    w->model = std::make_shared<net::ConstantHop>();
  }
  const auto t3 = Clock::now();
  w->build_s = seconds_between(t0, t1);
  w->publish_s = seconds_between(t1, t2);
  w->setup_s = seconds_between(t0, t3);
  const std::vector<fissione::PeerId>& alive = w->net->alive_peers();
  for (const Query& q : in.queries) {
    w->issuers.push_back(alive[q.issuer_pick % alive.size()]);
  }
  return w;
}

/// Which public boundary a pass drives.
enum class Level {
  kIndex,       ///< ArmadaIndex::range_query(_async): the measured path
  kPira,        ///< Pira::query_async with a counting ObjectFilter
  kFrt,         ///< FrtSearch::run_async with a counting viable predicate
  kFrtCapture,  ///< kFrt, also capturing the predicate's arguments
};

const char* layer_name(Level level) {
  switch (level) {
    case Level::kIndex:
      return "armada.range_query";
    case Level::kPira:
      return "armada.pira_query";
    case Level::kFrt:
    case Level::kFrtCapture:
      return "armada.frt_search";
  }
  return "?";
}

struct Counters {
  std::uint64_t filter_calls = 0;
  std::uint64_t filter_matches = 0;
  std::uint64_t viable_calls = 0;
  std::vector<std::uint32_t> classes;  ///< search classes per query
  PrefixCapture* capture = nullptr;
};

struct Pass {
  std::vector<RangeQueryResult> results;
  /// Host seconds per timed unit: a query (closed loop), a slice of
  /// kSlice arrivals, or the final drain (open loop); see Round.
  std::vector<double> unit_s;
  std::vector<std::size_t> unit_ops;
  double host_s = 0.0;
  std::uint64_t events = 0;  ///< only when the pass owns its simulators
  double sim_elapsed = 0.0;
  net::CongestionStats congestion;
};

/// PIRA's search, rebuilt one level down from the public pieces: the
/// query's Kautz region split into common-prefix classes, each with a
/// viable predicate that counts (and optionally captures) its calls, and
/// PIRA's destination scan.
void frt_query(World& w, sim::Simulator& sim, std::size_t q, const Query& query,
               Counters& c, std::function<void(RangeQueryResult)> done) {
  const kautz::KautzRegion region =
      w.index->naming_tree().region_for(query.lo, query.hi);
  std::vector<kautz::KautzRegion> subs = region.split_common_prefix();
  c.classes.push_back(static_cast<std::uint32_t>(subs.size()));
  std::vector<core::FrtSearchClass> classes;
  for (kautz::KautzRegion& sub : subs) {
    core::FrtSearchClass cls;
    cls.com_t = sub.common_prefix();
    std::uint64_t* calls = &c.viable_calls;
    if (c.capture != nullptr) {
      PrefixCapture* cap = c.capture;
      const auto ri = static_cast<std::uint32_t>(cap->regions.size());
      cap->regions.push_back(sub);
      cls.viable = [sub = std::move(sub), calls, cap,
                    ri](const kautz::KautzString& aligned) {
        ++*calls;
        const bool ok = sub.intersects_prefix(aligned);
        if (cap->calls.size() < cap->cap) {
          cap->calls.emplace_back(ri, aligned);
          cap->answers.push_back(ok ? 1 : 0);
        }
        return ok;
      };
    } else {
      cls.viable = [sub = std::move(sub), calls](const kautz::KautzString& aligned) {
        ++*calls;
        return sub.intersects_prefix(aligned);
      };
    }
    classes.push_back(std::move(cls));
  }
  const core::ArmadaIndex* index = w.index.get();
  const double lo = query.lo;
  const double hi = query.hi;
  const core::FrtSearch search(*w.net);
  search.run_async(
      sim, w.issuers[q], std::move(classes),
      [region, index, lo, hi](fissione::PeerId, const fissione::StoreView& view,
                              RangeQueryResult& out) {
        view.for_each([&](const fissione::StoredObject& obj) {
          if (!region.contains(obj.object_id)) {
            return;
          }
          const double v = index->attributes(obj.payload)[0];
          if (!(v < lo || v > hi)) {
            out.matches.push_back(obj.payload);
            ++out.stats.results;
          }
        });
      },
      std::move(done));
}

void launch(World& w, Level level, sim::Simulator& sim, std::size_t q,
            const Query& query, Counters& c,
            std::function<void(RangeQueryResult)> done) {
  switch (level) {
    case Level::kIndex:
      w.index->range_query_async(sim, w.issuers[q], query.lo, query.hi,
                                 std::move(done));
      return;
    case Level::kPira: {
      const core::ArmadaIndex* index = w.index.get();
      Counters* counters = &c;
      const double lo = query.lo;
      const double hi = query.hi;
      index->pira().query_async(
          sim, w.issuers[q], lo, hi,
          [index, counters, lo, hi](const fissione::StoredObject& obj) {
            ++counters->filter_calls;
            const double v = index->attributes(obj.payload)[0];
            const bool match = !(v < lo || v > hi);
            counters->filter_matches += match ? 1u : 0u;
            return match;
          },
          std::move(done));
      return;
    }
    case Level::kFrt:
    case Level::kFrtCapture:
      frt_query(w, sim, q, query, c, std::move(done));
      return;
  }
}

/// One pass of the round's queries through `level`. With `spans`, every
/// operation (closed loop) or slice of arrivals (open loop) becomes a span
/// under `parent` with a child for the layer call.
Pass run_pass(World& w, const Spec& spec, const Inputs& in, Level level,
              Counters& c, SpanLog* spans, std::uint64_t parent) {
  Pass p;
  const std::size_t n = in.queries.size();
  p.results.resize(n);
  if (spec.open_loop) {
    w.net->install_queueing(*w.queueing);  // fresh queues and stats
    sim::Simulator sim;
    std::size_t done_count = 0;
    for (std::size_t q = 0; q < n; ++q) {
      sim.schedule_at(in.queries[q].arrival, [&, q] {
        launch(w, level, sim, q, in.queries[q], c,
               [&p, &done_count, q](RangeQueryResult r) {
                 p.results[q] = std::move(r);
                 ++done_count;
               });
      });
    }
    // Slices of kSlice arrivals, each run up to its last arrival, then the
    // drain of everything still in flight.
    const auto timed = [&](bool drain, std::size_t ops, auto&& advance) {
      const auto t0 = Clock::now();
      advance();
      const auto t1 = Clock::now();
      p.unit_s.push_back(seconds_between(t0, t1));
      p.unit_ops.push_back(ops);
      p.host_s += p.unit_s.back();
      if (spans != nullptr) {
        const std::uint64_t id = spans->add(drain ? "drain" : "slice", parent, t0, t1);
        spans->add(drain ? "sim.run" : "sim.run_until", id, t0, t1);
      }
    };
    for (std::size_t k = 0; k < n; k += kSlice) {
      const std::size_t last = std::min(k + kSlice, n) - 1;
      timed(false, last - k + 1, [&] { sim.run_until(in.queries[last].arrival); });
    }
    timed(true, 0, [&] { sim.run(); });
    if (done_count != n) {
      throw CheckFailure(-1, std::to_string(n - done_count) +
                                 " queries never completed");
    }
    p.sim_elapsed = sim.now();
    p.events = sim.events_processed();
    p.congestion = w.net->congestion();
    return p;
  }
  for (std::size_t q = 0; q < n; ++q) {
    const Query& query = in.queries[q];
    const auto t0 = Clock::now();
    if (level == Level::kIndex) {
      p.results[q] = w.index->range_query(w.issuers[q], query.lo, query.hi);
    } else {
      sim::Simulator sim;
      launch(w, level, sim, q, query, c,
             [&p, q](RangeQueryResult r) { p.results[q] = std::move(r); });
      sim.run();
      p.events += sim.events_processed();
    }
    const auto t1 = Clock::now();
    p.unit_s.push_back(seconds_between(t0, t1));
    p.unit_ops.push_back(1);
    p.host_s += p.unit_s.back();
    if (spans != nullptr) {
      const std::uint64_t id = spans->add("op", parent, t0, t1);
      spans->add(layer_name(level), id, t0, t1);
    }
  }
  p.congestion = w.net->congestion();
  return p;
}

/// Answer and bound checks of one pass (outside every timed section).
void check_pass(const World& w, const Inputs& in, const ScanOracle& oracle,
                const Pass& p) {
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    check_answer(p.results[q], oracle.matches(in.queries[q].lo, in.queries[q].hi),
                 w.net->peer(w.issuers[q]).peer_id.length(),
                 static_cast<long long>(q));
  }
}

Fingerprint fingerprint(const Pass& p) {
  Fingerprint fp;
  std::vector<sim::QueryStats> stats;
  for (const RangeQueryResult& r : p.results) {
    stats.push_back(r.stats);
  }
  add_query_stats(fp, stats, p.results.size());
  const net::CongestionStats& c = p.congestion;
  fp.add("net.messages", static_cast<double>(c.messages));
  fp.add("net.batches", static_cast<double>(c.batches));
  fp.add("net.shed_messages", static_cast<double>(c.shed_messages));
  fp.add("net.ingress_depth_peak", static_cast<double>(c.ingress_depth_peak));
  fp.add("net.egress_depth_peak", static_cast<double>(c.egress_depth_peak));
  fp.add("net.queue_delay_total", c.queue_delay_total);
  fp.add("net.bytes_on_wire", static_cast<double>(c.bytes_on_wire));
  fp.add("sim_elapsed", p.sim_elapsed);
  return fp;
}

std::vector<std::uint64_t> hashes(const Pass& p) {
  std::vector<std::uint64_t> out;
  for (const RangeQueryResult& r : p.results) {
    out.push_back(result_hash(r));
  }
  return out;
}

Report run_untraced(const Options& opts, const Spec& spec, const Inputs& in) {
  const ScanOracle oracle(in.values);
  Report rep = run_rounds(
      opts,
      [&](std::size_t r) {
        std::unique_ptr<World> w = set_up(spec, in);
        Counters c;
        const Pass p = run_pass(*w, spec, in, Level::kIndex, c, nullptr, 0);
        if (r == 0) {
          check_pass(*w, in, oracle, p);
        }
        return Round{w->setup_s, p.unit_s, p.unit_ops, fingerprint(p), hashes(p)};
      },
      [&] { return set_up(spec, in)->setup_s; });
  if (spec.open_loop) {
    rep.note("op samples are the per-query host time of slices of " +
             std::to_string(kSlice) + " arrivals (the drain counts toward "
             "ops_per_s only); offered rate " +
             std::to_string(spec.rate) +
             " queries per simulated time unit, arrivals are simulated "
             "events, so the generator never runs late");
  }
  return rep;
}

Report run_traced(const Options& opts, const Spec& spec, const Inputs& in,
                  SpanLog& spans) {
  const ScanOracle oracle(in.values);
  const auto ts = Clock::now();
  std::unique_ptr<World> w = set_up(spec, in);
  spans.add("setup", 0, ts, Clock::now());
  const double nq = static_cast<double>(in.queries.size());

  const auto pass = [&](const char* name, Level level, Counters& c,
                        const Inputs& queries) {
    const auto t0 = Clock::now();
    const std::uint64_t id = spans.add(name, 0, t0, t0);
    Pass p = run_pass(*w, spec, queries, level, c, &spans, id);
    spans.close(id, Clock::now());
    return p;
  };

  // Untraced reference, then the same queries with hop tracing on.
  Counters cu;
  const Pass untraced = pass("pass.untraced", Level::kIndex, cu, in);
  check_pass(*w, in, oracle, untraced);
  const Fingerprint fp = fingerprint(untraced);
  const std::vector<std::uint64_t> want = hashes(untraced);

  obs::TraceConfig tcfg;
  tcfg.sample_period = 1;
  tcfg.seed = opts.seed;
  auto recorder = std::make_shared<obs::TraceRecorder>(tcfg);
  w->net->transport().attach_trace(recorder);
  Counters ct;
  const Pass traced = pass("pass.traced", Level::kIndex, ct, in);
  w->net->transport().detach_trace();
  expect_same(fp, fingerprint(traced), "traced vs untraced");
  expect_same(want, hashes(traced), "traced vs untraced");
  if (const std::string bad = recorder->validate(); !bad.empty()) {
    throw CheckFailure(-1, "trace is malformed: " + bad);
  }
  if (recorder->spans_dropped() != 0) {
    throw CheckFailure(-1, "trace dropped spans");
  }

  // One level down: PIRA with a counting filter, then the FRT search with
  // a counting predicate (timed), then once more capturing arguments.
  Counters cp;
  const Pass pira = pass("pass.pira", Level::kPira, cp, in);
  expect_same(fp, fingerprint(pira), "Pira::query_async replay");
  expect_same(want, hashes(pira), "Pira::query_async replay");
  Counters cf;
  const Pass frt = pass("pass.frt", Level::kFrt, cf, in);
  expect_same(fp, fingerprint(frt), "FrtSearch::run_async replay");
  expect_same(want, hashes(frt), "FrtSearch::run_async replay");
  // Arguments only: a prefix of the queries yields enough calls.
  Inputs prefix = in;
  prefix.queries.resize(std::min<std::size_t>(in.queries.size(), 400));
  PrefixCapture capture;
  capture.cap = 400000;
  Counters cc;
  cc.capture = &capture;
  pass("pass.frt_capture", Level::kFrtCapture, cc, prefix);

  // Per-call prices from replays into one layer at a time.
  const SimShape shape = spec.open_loop ? SimShape::kShared : SimShape::kPerQuery;
  auto t0 = Clock::now();
  const double intersects_ns = replay_intersects_prefix(capture);
  auto t1 = Clock::now();
  spans.add("replay.kautz.intersects_prefix", 0, t0, t1);
  const EventReplay ev = replay_events(recorder->spans(), cf.classes, shape,
                                       frt.events);
  t0 = Clock::now();
  spans.add("replay.sim.dispatch", 0, t1, t0);
  const double deliver_ns =
      replay_transport(recorder->spans(), w->model, w->queueing, shape);
  t1 = Clock::now();
  spans.add("replay.net.deliver", 0, t0, t1);

  const NamingPrices naming = price_naming(*w->net, w->index->naming_tree(),
                                           in.values, opts.seed, spans);

  const double messages = fp.get("messages");
  const double frt_us = frt.host_s / nq * 1e6;
  const double priced_us =
      (static_cast<double>(cf.viable_calls) * intersects_ns +
       static_cast<double>(ev.events) * ev.ns_per_event +
       messages * deliver_ns) /
      nq / 1000.0;
  const net::CongestionStats& cs = untraced.congestion;
  const double query_sends =
      static_cast<double>(cs.class_messages[net::class_index(net::TrafficClass::kQuery)]);

  Report rep;
  rep.attempted = in.queries.size();
  rep.add("kautz.viable_evals_per_query", static_cast<double>(cf.viable_calls) / nq);
  rep.add("kautz.intersects_prefix_ns", intersects_ns);
  rep.add("kautz.single_hash_ns", naming.single_hash_ns);
  rep.add("armada.useful_eval_ratio",
          cf.viable_calls == 0 ? 0.0 : messages / static_cast<double>(cf.viable_calls));
  rep.add("armada.frt_us_per_query", frt_us);
  rep.add("armada.frt_self_us_per_query", frt_us - priced_us);
  rep.add("armada.scan_objects_per_query", static_cast<double>(cp.filter_calls) / nq);
  rep.add("armada.scan_match_ratio",
          cp.filter_calls == 0 ? 0.0
                               : static_cast<double>(cp.filter_matches) /
                                     static_cast<double>(cp.filter_calls));
  rep.add("armada.publish_us", w->publish_s / static_cast<double>(in.values.size()) * 1e6);
  rep.add("sim.events_per_query", static_cast<double>(frt.events) / nq);
  rep.add("sim.equal_time_batch_mean",
          ev.instants == 0 ? 0.0
                           : static_cast<double>(ev.events) /
                                 static_cast<double>(ev.instants));
  rep.add("sim.dispatch_ns_per_event", ev.ns_per_event);
  rep.add("net.deliver_ns", deliver_ns);
  rep.add("net.queue_delay_mean", cs.queue_delay_mean());
  rep.add("net.ingress_depth_peak", static_cast<double>(cs.ingress_depth_peak));
  rep.add("net.service_utilization",
          cs.service_utilization(untraced.sim_elapsed, w->net->num_peers()));
  rep.add("net.shed_frac",
          cs.shed_messages == 0
              ? 0.0
              : static_cast<double>(cs.shed_messages) /
                    (static_cast<double>(cs.shed_messages) + query_sends));
  rep.add("net.departures_saved_frac",
          cs.messages == 0 ? 0.0
                           : static_cast<double>(cs.departures_saved()) /
                                 static_cast<double>(cs.messages));
  rep.add("fissione.route_ns", naming.route_ns);
  rep.add("fissione.build_s", w->build_s);
  rep.add("obs.trace_overhead_ratio", traced.host_s / untraced.host_s);
  rep.add("obs.spans_per_query",
          static_cast<double>(recorder->spans_recorded()) / nq);
  for (const char* name :
       {"fissione.join_us", "fissione.leave_us", "fissione.rewired_per_churn",
        "replica.on_membership_us", "rebalance.on_membership_us",
        "replica.invalidations_per_write", "replica.cache_hit_ratio",
        "replica.replica_routes_per_query", "replica.placement_messages",
        "rebalance.migrations_completed", "rebalance.objects_migrated"}) {
    rep.add_undefined(name);
  }
  rep.digest = fp.digest();
  rep.note("armada.frt_self_us_per_query is an estimate by subtraction: "
           "FRT-level replay time minus predicate calls x intersects_prefix_ns, "
           "events x dispatch_ns_per_event and messages x deliver_ns");
  rep.note("FRT-level, PIRA-level, traced and untraced passes agree bitwise on " +
           std::to_string(in.queries.size()) + " answers; event replay " +
           std::to_string(ev.events) + " events; " +
           std::to_string(capture.calls.size()) + " predicate calls captured");
  return rep;
}

Report run_frt_workload(const Options& opts, bool congested, SpanLog& spans) {
  const Spec spec = spec_for(congested, opts.smoke);
  const Inputs in = make_inputs(spec, opts.seed);
  return opts.trace ? run_traced(opts, spec, in, spans)
                    : run_untraced(opts, spec, in);
}

}  // namespace

Report run_paper_sweep(const Options& opts, SpanLog& spans) {
  return run_frt_workload(opts, false, spans);
}

Report run_congested_async(const Options& opts, SpanLog& spans) {
  return run_frt_workload(opts, true, spans);
}

}  // namespace e2e
