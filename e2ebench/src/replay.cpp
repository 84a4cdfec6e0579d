#include "replay.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "net/transport.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace e2e {

using armada::obs::Span;
namespace sim = armada::sim;

double replay_intersects_prefix(const PrefixCapture& capture) {
  if (capture.calls.empty()) {
    return 0.0;
  }
  // Repeat the capture until the loop is long enough to time reliably.
  const std::size_t n = capture.calls.size();
  const std::size_t reps = std::max<std::size_t>(1, 400000 / n);
  std::uint64_t hits = 0;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& [region, prefix] : capture.calls) {
      hits += capture.regions[region].intersects_prefix(prefix) ? 1u : 0u;
    }
  }
  const auto t1 = Clock::now();
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool got = capture.regions[capture.calls[i].first].intersects_prefix(
        capture.calls[i].second);
    if (got != (capture.answers[i] != 0)) {
      throw CheckFailure(static_cast<long long>(i),
                         "intersects_prefix replay diverged from the search");
    }
    want += got ? 1u : 0u;
  }
  if (hits != want * reps) {
    throw CheckFailure(-1, "intersects_prefix replay is not deterministic");
  }
  return seconds_between(t0, t1) * 1e9 / static_cast<double>(n * reps);
}

namespace {

/// Children of each span in recording order, as CSR offsets into `list`.
struct Children {
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> list;

  explicit Children(const std::vector<Span>& spans) {
    begin.assign(spans.size() + 2, 0);
    for (const Span& s : spans) {
      if (s.parent != 0) {
        ++begin[s.parent + 1];
      }
    }
    for (std::size_t i = 1; i < begin.size(); ++i) {
      begin[i] += begin[i - 1];
    }
    list.resize(begin.back());
    std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
    for (const Span& s : spans) {
      if (s.parent != 0) {
        list[fill[s.parent]++] = static_cast<std::uint32_t>(s.id);
      }
    }
  }
};

/// The replayed schedule: every event body only counts its instant and
/// schedules what the recorded run scheduled from that event.
struct Dispatcher {
  sim::Simulator* sim = nullptr;
  const std::vector<Span>* spans = nullptr;
  const Children* children = nullptr;
  std::uint64_t instants = 0;
  double last = std::numeric_limits<double>::quiet_NaN();

  void tick() {
    if (!(sim->now() == last)) {
      ++instants;
      last = sim->now();
    }
  }
  void send_children(std::uint64_t id) {
    for (std::uint32_t i = children->begin[id]; i < children->begin[id + 1];
         ++i) {
      const std::uint32_t c = children->list[i];
      sim->schedule_at((*spans)[c - 1].deliver_at, [this, c] { hop(c); });
    }
  }
  void hop(std::uint32_t id) {
    tick();
    send_children(id);
  }
  // Search-class start events: the recorded spans do not say which class
  // sent each first-level hop, so the first class event sends them all.
  void class_start(std::uint64_t root, bool first) {
    tick();
    if (first) {
      send_children(root);
    }
  }
  void start_classes(std::uint64_t root, std::uint32_t classes) {
    for (std::uint32_t i = 0; i < classes; ++i) {
      sim->schedule_at(sim->now(), [this, root, i] { class_start(root, i == 0); });
    }
  }
  void arrival(std::uint64_t root, std::uint32_t classes) {
    tick();
    start_classes(root, classes);
  }
};

std::vector<std::uint64_t> roots_of(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> roots;
  for (const Span& s : spans) {
    if (s.parent == 0) {
      roots.push_back(s.id);
    }
  }
  return roots;
}

}  // namespace

EventReplay replay_events(const std::vector<Span>& spans,
                          const std::vector<std::uint32_t>& classes,
                          SimShape shape, std::uint64_t expected_events) {
  const std::vector<std::uint64_t> roots = roots_of(spans);
  if (roots.size() != classes.size()) {
    throw CheckFailure(-1, "event replay: " + std::to_string(roots.size()) +
                               " traced queries, expected " +
                               std::to_string(classes.size()));
  }
  const Children children(spans);
  EventReplay out;
  double seconds = 0.0;
  if (shape == SimShape::kShared) {
    sim::Simulator sim;
    Dispatcher d{&sim, &spans, &children};
    const auto t0 = Clock::now();
    for (std::size_t q = 0; q < roots.size(); ++q) {
      const std::uint64_t root = roots[q];
      const std::uint32_t k = classes[q];
      sim.schedule_at(spans[root - 1].send_at,
                      [&d, root, k] { d.arrival(root, k); });
    }
    sim.run();
    seconds = seconds_between(t0, Clock::now());
    out.events = sim.events_processed();
    out.instants = d.instants;
  } else {
    for (std::size_t q = 0; q < roots.size(); ++q) {
      const auto t0 = Clock::now();
      sim::Simulator sim;
      Dispatcher d{&sim, &spans, &children};
      d.start_classes(roots[q], classes[q]);
      sim.run();
      seconds += seconds_between(t0, Clock::now());
      out.events += sim.events_processed();
      out.instants += d.instants;
    }
  }
  if (out.events != expected_events) {
    throw CheckFailure(-1, "event replay processed " +
                               std::to_string(out.events) +
                               " events, the search processed " +
                               std::to_string(expected_events));
  }
  out.ns_per_event =
      out.events == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(out.events);
  return out;
}

double replay_transport(const std::vector<Span>& spans,
                        std::shared_ptr<const armada::net::LatencyModel> model,
                        const std::optional<armada::net::QueueingConfig>& queueing,
                        SimShape shape) {
  armada::net::Transport transport(std::move(model));
  if (queueing.has_value()) {
    transport.install_queueing(*queueing);
  }
  // Hops grouped by query (closed loop: one fresh simulator each) or in
  // one recording-order run (open loop: the shared queue state).
  std::vector<std::vector<std::uint32_t>> groups;
  if (shape == SimShape::kShared) {
    groups.emplace_back();
  }
  std::vector<std::size_t> group_of_root(spans.size() + 1, 0);
  for (const Span& s : spans) {
    if (s.parent == 0) {
      if (shape == SimShape::kPerQuery) {
        group_of_root[s.id] = groups.size();
        groups.emplace_back();
      }
      continue;
    }
    groups[shape == SimShape::kShared ? 0 : group_of_root[s.trace]].push_back(
        static_cast<std::uint32_t>(s.id));
  }

  std::vector<double> delivered;
  delivered.reserve(spans.size());
  double seconds = 0.0;
  std::size_t hops = 0;
  for (const auto& group : groups) {
    sim::Simulator sim;  // the clock stays at 0: enqueue_at is the send time
    const auto t0 = Clock::now();
    for (const std::uint32_t id : group) {
      const Span& s = spans[id - 1];
      delivered.push_back(
          transport.deliver(sim, s.from, s.to, s.bytes, {}, s.enqueue_at, s.cls));
    }
    seconds += seconds_between(t0, Clock::now());
    hops += group.size();
  }
  std::size_t i = 0;
  for (const auto& group : groups) {
    for (const std::uint32_t id : group) {
      const double want = spans[id - 1].deliver_at;
      if (std::memcmp(&want, &delivered[i], sizeof(double)) != 0) {
        throw CheckFailure(static_cast<long long>(id),
                           "transport replay delivered span " +
                               std::to_string(id) + " at " +
                               std::to_string(delivered[i]) + ", recorded " +
                               std::to_string(want));
      }
      ++i;
    }
  }
  return hops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(hops);
}

NamingPrices price_naming(const armada::fissione::FissioneNetwork& net,
                          const armada::kautz::PartitionTree& tree,
                          const std::vector<double>& values, std::uint64_t seed,
                          SpanLog& spans) {
  NamingPrices out;
  std::uint64_t sink = 0;
  const std::size_t reps = std::max<std::size_t>(1, 400000 / values.size());
  auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const double v : values) {
      sink += tree.single_hash(v).length();
    }
  }
  auto t1 = Clock::now();
  spans.add("replay.kautz.single_hash", 0, t0, t1);
  out.single_hash_ns = seconds_between(t0, t1) * 1e9 /
                       static_cast<double>(reps * values.size());

  armada::Rng rng(seed ^ 0x5eedull);
  const armada::kautz::Interval domain = tree.attribute_ranges()[0];
  const std::vector<armada::fissione::PeerId>& alive = net.alive_peers();
  std::vector<std::pair<armada::fissione::PeerId, armada::kautz::KautzString>> routes;
  for (int i = 0; i < 20000; ++i) {
    routes.emplace_back(alive[rng.next_index(alive.size())],
                        tree.single_hash(rng.next_double(domain.lo, domain.hi)));
  }
  t0 = Clock::now();
  for (const auto& [from, key] : routes) {
    sink += net.route(from, key).hops;
  }
  t1 = Clock::now();
  spans.add("replay.fissione.route", 0, t0, t1);
  out.route_ns = seconds_between(t0, t1) * 1e9 / static_cast<double>(routes.size());
  keep(sink);
  return out;
}

}  // namespace e2e
