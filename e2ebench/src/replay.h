// Per-call costs priced without a timer around every call: captured inputs
// of one layer are replayed into that layer alone, in a tight loop, and
// every replay is checked against what the full run recorded — a replay
// that diverges throws CheckFailure instead of reporting a number.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fissione/network.h"
#include "kautz/kautz_region.h"
#include "kautz/partition_tree.h"
#include "kautz/kautz_string.h"
#include "net/latency_model.h"
#include "net/queueing.h"
#include "obs/trace.h"
#include "support.h"

namespace e2e {

/// Arguments of FRT pruning-predicate calls captured during a search:
/// `calls[i]` asks whether `regions[calls[i].first]` intersects the prefix
/// `calls[i].second`; `answers[i]` is what the search saw.
struct PrefixCapture {
  std::size_t cap = 0;  ///< calls captured at most
  std::vector<armada::kautz::KautzRegion> regions;
  std::vector<std::pair<std::uint32_t, armada::kautz::KautzString>> calls;
  std::vector<std::uint8_t> answers;
};

/// ns per KautzRegion::intersects_prefix call over the captured arguments.
double replay_intersects_prefix(const PrefixCapture& capture);

/// How the traced run drove its simulators: one fresh simulator per query
/// (closed loop) or one shared simulator on which each query is an arrival
/// event (open loop).
enum class SimShape { kPerQuery, kShared };

struct EventReplay {
  std::uint64_t events = 0;
  std::uint64_t instants = 0;  ///< distinct simulated instants dispatched
  double ns_per_event = 0.0;
};

/// Rebuilds the event schedule of traced queries from their hop spans —
/// per query an optional arrival event, one start event per search class
/// (`classes[q]`), then one arrival per hop, each scheduled when its parent
/// hop lands — and dispatches it through bare simulators with empty
/// bodies. Throws unless the replay processes `expected_events`.
EventReplay replay_events(const std::vector<armada::obs::Span>& spans,
                          const std::vector<std::uint32_t>& classes,
                          SimShape shape, std::uint64_t expected_events);

/// Re-sends every recorded hop span, in recording order, through a fresh
/// net::Transport with the same latency model and queueing config; returns
/// ns per delivery. Throws unless every delivery instant matches the
/// recorded one bitwise.
double replay_transport(const std::vector<armada::obs::Span>& spans,
                        std::shared_ptr<const armada::net::LatencyModel> model,
                        const std::optional<armada::net::QueueingConfig>& queueing,
                        SimShape shape);

struct NamingPrices {
  double single_hash_ns = 0.0;
  double route_ns = 0.0;
};

/// ns per PartitionTree::single_hash over `values` (repeated to at least
/// 400 000 calls) and per FissioneNetwork::route between seeded random
/// peers and keys; each loop is recorded as a span.
NamingPrices price_naming(const armada::fissione::FissioneNetwork& net,
                          const armada::kautz::PartitionTree& tree,
                          const std::vector<double>& values, std::uint64_t seed,
                          SpanLog& spans);

}  // namespace e2e
