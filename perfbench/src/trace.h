// Benchmark-side tracing: spans timed around calls into each layer's public
// functions, aggregated into per-layer self time on a span stack.
//
// Nothing here is compiled into the program. The decorators below wrap the
// program's own seams (EgressDevice, PacketProcessor, PipelineObserver,
// ControlHook); an untraced run installs none of them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/device.h"
#include "np/nic_pipeline.h"

namespace perfbench {

using namespace flowvalve;

/// Cheap monotonic tick source: the TSC on x86-64, steady_clock elsewhere.
std::uint64_t ticks();

/// Nanoseconds per tick, calibrated once against steady_clock.
double ns_per_tick();

/// Tick cost of one empty span: `inner` lies between its own tick reads,
/// `outer` is charged to the enclosing span. Calibrated once.
struct SpanCost {
  double inner = 0.0;
  double outer = 0.0;
};
const SpanCost& span_cost();

/// Timed layers. kSim is the root span (Simulator::run_until); the other
/// entries are the layer boundaries the decorators wrap.
enum class Layer : std::uint8_t {
  kSim,            // Simulator::run_until
  kNp,             // EgressDevice::submit into NicPipeline
  kCore,           // PacketProcessor::process_batch / process
  kObs,            // PipelineObserver callbacks into MetricsHub
  kTraffic,        // delivered/dropped callbacks into FlowRouter
  kCtrlBoundary,   // ControlHook::on_packet_boundary
  kCtrlApply,      // ReconfigManager::apply
};
inline constexpr std::size_t kNumLayers = 7;
const char* layer_name(Layer layer);

/// One raw span kept for the bounded window written out at the end.
struct RawSpan {
  Layer layer;
  std::uint32_t parent;  // index of the enclosing span, or kNoParent
  std::uint64_t start;   // ticks
  std::uint64_t end;     // ticks
  std::uint64_t packet;  // packet id the span carried, 0 if none
};
inline constexpr std::uint32_t kNoParent = 0xffffffffu;

class Tracer {
 public:
  explicit Tracer(std::size_t raw_capacity = 1u << 16);

  void enter(Layer layer, std::uint64_t packet = 0);
  void exit();

  /// Self ticks (span duration minus child spans) and call counts per layer.
  std::uint64_t self_ticks(Layer l) const { return self_[idx(l)]; }
  std::uint64_t calls(Layer l) const { return calls_[idx(l)]; }
  /// Total ticks spent in root (kSim) spans.
  std::uint64_t root_ticks() const { return root_ticks_; }
  std::uint64_t total_self_ticks() const;
  /// Self ticks with the tracer's own cost taken out: each span loses the
  /// cost an empty span measures inside itself, and each parent loses the
  /// cost an empty child charges to it (span_cost()). Can dip below zero
  /// for a layer cheaper than the calibration's resolution.
  double net_ticks(Layer l) const;
  /// The tracer's own cost that net_ticks() took out, over all layers.
  double instrumentation_ticks() const;
  /// Durations (ticks) of every ReconfigManager::apply call.
  const std::vector<std::uint64_t>& apply_ticks() const { return apply_ticks_; }

  const std::vector<RawSpan>& raw() const { return raw_; }
  bool write_raw(const std::string& path) const;

 private:
  static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }
  struct Frame {
    Layer layer;
    std::uint64_t start;
    std::uint64_t child;
    std::uint32_t raw_index;
  };
  std::vector<Frame> stack_;
  std::array<std::uint64_t, kNumLayers> self_{};
  std::array<std::uint64_t, kNumLayers> calls_{};
  std::array<std::uint64_t, kNumLayers> children_{};  // direct child spans
  std::uint64_t root_ticks_ = 0;
  std::vector<std::uint64_t> apply_ticks_;
  std::size_t raw_capacity_;
  std::vector<RawSpan> raw_;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* t, Layer layer, std::uint64_t packet = 0) : t_(t) {
    if (t_) t_->enter(layer, packet);
  }
  ~Span() {
    if (t_) t_->exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// Per-flow delivery checker: every delivered packet of a flow must carry a
/// larger packet id than the flow's previous delivery (ids are assigned in
/// creation order), and every submitted packet must be delivered or dropped
/// exactly once by the end of the drain. It also keeps every delivered
/// packet's total sojourn (delivered_at - nic_arrival, the quantity the
/// LatencyRecorder bins) for exact statistics.
class DeliveryChecker {
 public:
  void on_submit() { ++submitted_; }
  void on_delivered(const net::Packet& pkt);
  void on_dropped() { ++dropped_; }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t out_of_order() const { return out_of_order_; }
  /// Packets neither delivered nor dropped (or accounted twice).
  std::uint64_t unaccounted() const;
  struct Sojourn {
    double p50_us = 0.0;   // nearest rank, the LogHistogram's rank rule
    double p99_us = 0.0;
    double mean_us = 0.0;
    double tail_us = 0.0;  // mean of the slowest 1% (at least one packet)
  };
  /// Exact statistics over every delivered packet; zeros if none.
  Sojourn sojourn() const;

 private:
  std::vector<std::int64_t> sojourn_ns_;
  std::vector<std::uint64_t> last_id_;  // indexed by flow id
  std::uint64_t submitted_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t out_of_order_ = 0;
};

/// Decorator device between FlowRouter and NicPipeline. Times submit()
/// (layer np) and the delivered/dropped callbacks back into the router
/// (layer traffic), and feeds the checker when one is given.
class TapDevice final : public net::EgressDevice {
 public:
  TapDevice(np::NicPipeline& inner, Tracer* tracer, DeliveryChecker* checker);
  TapDevice(const TapDevice&) = delete;
  TapDevice& operator=(const TapDevice&) = delete;
  bool submit(net::Packet pkt) override;

  /// Delivered/dropped callbacks forwarded to the router.
  std::uint64_t feedback_calls() const { return feedback_calls_; }

 private:
  np::NicPipeline& inner_;
  Tracer* tracer_;
  DeliveryChecker* checker_;
  std::uint64_t feedback_calls_ = 0;
};

/// Decorator processor: times the FlowValve processor (layer core) and
/// counts bursts and packets.
class TapProcessor final : public np::PacketProcessor {
 public:
  TapProcessor(np::PacketProcessor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  Outcome process(net::Packet& pkt, sim::SimTime now) override;
  void process_batch(BatchSlot* slots, std::size_t n, sim::SimTime now) override;

  std::uint64_t bursts() const { return bursts_; }
  std::uint64_t packets() const { return packets_; }

 private:
  np::PacketProcessor& inner_;
  Tracer& tracer_;
  std::uint64_t bursts_ = 0;
  std::uint64_t packets_ = 0;
};

/// Forwarding observer: times every PipelineObserver callback (layer obs).
class TapObserver final : public np::PipelineObserver {
 public:
  TapObserver(np::PipelineObserver& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void on_submit(const net::Packet& p, sim::SimTime t) override;
  void on_dispatch(const net::Packet& p, unsigned w, std::uint64_t seq,
                   sim::SimTime t, sim::SimDuration busy) override;
  void on_drop(const net::Packet& p, np::DropReason r, sim::SimTime t) override;
  void on_watchdog(const net::Packet& p, unsigned w, std::uint64_t seq,
                   sim::SimTime t) override;
  void on_wire_tx(const net::Packet& p, sim::SimTime t) override;
  void on_delivered(const net::Packet& p, sim::SimTime t) override;

  std::uint64_t calls() const { return calls_; }

 private:
  np::PipelineObserver& inner_;
  Tracer& tracer_;
  std::uint64_t calls_ = 0;
};

/// Forwarding control hook: times ControlHook::on_packet_boundary (ctrl).
class TapControlHook final : public np::ControlHook {
 public:
  TapControlHook(np::ControlHook& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  Cutover on_packet_boundary(unsigned worker, sim::SimTime now,
                             unsigned packets) override;

 private:
  np::ControlHook& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
