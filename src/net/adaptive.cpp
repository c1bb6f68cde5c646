#include "net/adaptive.hpp"

#include <memory>

#include "common/contract.hpp"
#include "core/distance.hpp"
#include "obs/trace.hpp"

namespace dbn::net {

RescoreDistance::RescoreDistance(const DeBruijnGraph& graph,
                                 std::uint64_t destination)
    : graph_(graph) {
  if (PackedWord::packable(graph.radix(), graph.k())) {
    packed_y_ = PackedWord::from_rank(graph.radix(), graph.k(), destination);
  } else {
    word_y_ = graph.word(destination);
  }
}

int RescoreDistance::operator()(std::uint64_t rank) const {
  if (packed_y_.has_value()) {
    return undirected_distance(
        PackedWord::from_rank(graph_.radix(), graph_.k(), rank), *packed_y_);
  }
  return undirected_distance(graph_.word(rank), *word_y_);
}

namespace {

const char* move_name(AdaptiveMove move) {
  switch (move) {
    case AdaptiveMove::Improve:
      return "improve";
    case AdaptiveMove::Sideways:
      return "sideways";
    case AdaptiveMove::Deflect:
      return "deflect";
  }
  return "?";
}

}  // namespace

AdaptiveResult adaptive_route(const DeBruijnGraph& graph,
                              const std::vector<bool>& failed, const Word& x,
                              const Word& y, Rng& rng,
                              const AdaptiveConfig& config) {
  DBN_REQUIRE(failed.size() == graph.vertex_count(),
              "failed mask size must equal the vertex count");
  DBN_REQUIRE(x.radix() == graph.radix() && x.length() == graph.k() &&
                  y.radix() == graph.radix() && y.length() == graph.k(),
              "route endpoints must belong to the graph");
  DBN_REQUIRE(!failed[x.rank()] && !failed[y.rank()],
              "adaptive_route endpoints must be live");
  DBN_REQUIRE(graph.orientation() == Orientation::Undirected,
              "adaptive routing uses the bi-directional distance function");
  DBN_REQUIRE(config.layers == nullptr ||
                  config.layers->vertex_count() == graph.vertex_count(),
              "layer table must cover the routed graph");

  // One cache interaction per walk: the destination's view is pinned here
  // and every per-hop decision below is plain array reads.
  const std::shared_ptr<const LayerTable::View> view =
      config.layers != nullptr ? config.layers->view(y) : nullptr;
  const std::uint64_t target = y.rank();
  const RescoreDistance rescore(graph, target);

  // 4k covers greedy walks with detours for k >= 2; at k = 1 it leaves a
  // 4-hop budget that real fault clusters exhaust, so floor it.
  const int ttl = config.ttl > 0
                      ? config.ttl
                      : std::max(4 * static_cast<int>(graph.k()), 8);
  AdaptiveResult result;
  obs::Span span;
  if (obs::tracing_enabled()) {
    span = obs::Span::begin("adaptive_route", "adaptive",
                            obs::TraceClock::Logical, 0.0);
    span.arg(obs::targ("x", x.to_string()))
        .arg(obs::targ("y", y.to_string()))
        .arg(obs::targ("ttl", ttl))
        .arg(obs::targ("scoring", view != nullptr ? "layer-table" : "rescore"));
  }
  AdaptiveScratch scratch;
  std::uint64_t at = x.rank();
  std::uint64_t previous = graph.vertex_count();  // sentinel: no previous
  while (at != target) {
    if (result.hops >= ttl) {
      if (span) {
        span.arg(obs::targ("delivered", "false"))
            .arg(obs::targ("reason", "ttl"));
        span.end(static_cast<double>(result.hops));
      }
      return result;  // undelivered
    }
    const std::optional<AdaptiveStep> step =
        view != nullptr
            ? adaptive_step(graph, failed, at, previous, config.jitter,
                            config.deflect, rng, scratch, *view)
            : adaptive_step(graph, failed, at, previous, config.jitter,
                            config.deflect, rng, scratch, rescore);
    if (!step.has_value()) {
      if (span) {
        span.arg(obs::targ("delivered", "false"))
            .arg(obs::targ("reason", "stuck"));
        span.end(static_cast<double>(result.hops));
      }
      return result;  // stuck: every live neighbor is dead or none exist
    }
    previous = at;
    at = step->next;
    ++result.hops;
    result.deflections += step->move == AdaptiveMove::Deflect;
    result.sideways_moves += step->move == AdaptiveMove::Sideways;
    if (span) {
      span.instant("hop", static_cast<double>(result.hops - 1),
                   {obs::targ("to", graph.word(at).to_string()),
                    obs::targ("move", move_name(step->move)),
                    obs::targ("dist", step->here)});
    }
  }
  result.delivered = true;
  if (span) {
    span.arg(obs::targ("delivered", "true"));
    span.end(static_cast<double>(result.hops));
  }
  return result;
}

}  // namespace dbn::net
