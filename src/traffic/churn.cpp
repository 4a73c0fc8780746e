#include "traffic/churn.h"

#include <algorithm>
#include <limits>

namespace flowvalve::traffic {

namespace {

ChurnWorkloadConfig clamped(ChurnWorkloadConfig c) {
  if (c.target_live_flows == 0) c.target_live_flows = 1;
  if (c.initial_flows == 0) c.initial_flows = c.target_live_flows;
  c.initial_flows = std::min(c.initial_flows, c.target_live_flows);
  if (c.vf_count == 0) c.vf_count = 1;
  if (c.train_length == 0) c.train_length = 1;
  // A flow's packet counts are 32-bit (ChurnWorkload::Flow), so its drawn
  // size, at most max(min_packets + 1, max_packets), must fit in 32 bits.
  constexpr std::uint64_t kMaxPackets = std::numeric_limits<std::uint32_t>::max();
  c.max_packets = std::min(c.max_packets, kMaxPackets);
  c.min_packets = std::min(c.min_packets, kMaxPackets - 1);
  return c;
}

}  // namespace

ChurnWorkload::ChurnWorkload(sim::Simulator& sim, FlowRouter& router,
                             IdAllocator& ids, ChurnWorkloadConfig config,
                             sim::Rng rng)
    : sim_(sim),
      router_(router),
      ids_(ids),
      config_(clamped(config)),
      sizes_(config_.size_alpha,
             std::max<std::uint64_t>(1, config_.min_packets),
             std::max<std::uint64_t>(config_.min_packets + 1, config_.max_packets)),
      rng_(rng) {}

ChurnWorkload::~ChurnWorkload() { stop(); }

net::FiveTuple ChurnWorkload::tuple_for(std::uint64_t serial) {
  // Serial-derived five-tuples: unique for up to 2^48 flows (the rng draws
  // stay reserved for sizes and arrival gaps).
  net::FiveTuple t;
  t.src_ip = 0x0a000000u + static_cast<std::uint32_t>(serial >> 16);
  t.dst_ip = 0x0a000002u;
  t.src_port = static_cast<std::uint16_t>(serial & 0xFFFF);
  t.dst_port = 80;
  t.proto = net::IpProto::kUdp;
  return t;
}

std::uint16_t ChurnWorkload::vf_for(std::uint64_t serial, unsigned vf_count) {
  return static_cast<std::uint16_t>(serial % std::max(1u, vf_count));
}

void ChurnWorkload::start() {
  if (active_flag_) return;
  active_flag_ = true;
  flows_.reserve(config_.target_live_flows);
  for (std::size_t i = 0; i < config_.initial_flows; ++i) spawn_flow();
  if (config_.flows_per_sec > 0.0) arm_arrival(sim_.now());
  arm_service();
}

void ChurnWorkload::stop() {
  active_flag_ = false;
  // A dormant chain's skipped gaps are not drawn here, so a later start()
  // continues the rng from an earlier point than an always-armed chain.
  arrival_dormant_ = false;
  arrival_event_.cancel();
  service_event_.cancel();
  for (const Flow& f : flows_) router_.unregister_flow(f.flow_id);
  flows_.clear();
  cursor_ = 0;
}

void ChurnWorkload::spawn_flow() {
  if (flows_.size() >= config_.target_live_flows) return;
  Flow f;
  f.serial = serial_++;
  f.flow_id = ids_.next_flow_id();
  f.remaining_packets = static_cast<std::uint32_t>(sizes_.sample(rng_));
  router_.register_flow(f.flow_id, this);
  ++flows_started_;
  flows_.push_back(f);
}

FlowSpec ChurnWorkload::spec_for(const Flow& f) const {
  FlowSpec spec;
  spec.flow_id = f.flow_id;
  spec.app_id = config_.app_id;
  spec.vf_port = vf_for(f.serial, config_.vf_count);
  spec.wire_bytes = config_.wire_bytes;
  spec.tuple = tuple_for(f.serial);
  return spec;
}

void ChurnWorkload::arm_arrival(sim::SimTime from) {
  const double mean_gap_ns = 1e9 / config_.flows_per_sec;
  next_arrival_at_ =
      from + std::max<sim::SimDuration>(
                 1, static_cast<sim::SimDuration>(rng_.exponential(mean_gap_ns)));
  arrival_order_ = ++arm_order_;
  // At the ceiling the arrival would find no free slot, and only a service
  // can free one: sleep until the service event wakes the chain.
  arrival_dormant_ = flows_.size() >= config_.target_live_flows;
  if (!arrival_dormant_) schedule_arrival();
}

void ChurnWorkload::schedule_arrival() {
  arrival_event_ = sim_.schedule_at(next_arrival_at_, [this] {
    if (!active_flag_) return;
    spawn_flow();
    arm_arrival(sim_.now());
  });
}

void ChurnWorkload::arm_service() {
  // One pending event regardless of live-flow count: the aggregate rate is
  // spent train by train, round-robin over whatever is live.
  const double train_bits = static_cast<double>(config_.train_length) *
                            static_cast<double>(config_.wire_bytes) * 8.0;
  const double gap_ns =
      train_bits * 1e9 / std::max(config_.aggregate_rate.bps(), 1e3);
  service_order_ = ++arm_order_;
  service_event_ = sim_.schedule_after(
      std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(gap_ns)),
      [this] {
        if (!active_flag_) return;
        // The dormant arrivals due before this service all found the
        // ceiling: each only drew its successor's gap.
        while (arrival_dormant_ &&
               (next_arrival_at_ < sim_.now() ||
                (next_arrival_at_ == sim_.now() && arrival_order_ < service_order_)))
          arm_arrival(next_arrival_at_);
        service_next();
        // Wake before re-arming the service: the pending arrival was armed
        // before this service ran, so it wins a tie with the next one.
        if (arrival_dormant_ && flows_.size() < config_.target_live_flows) {
          arrival_dormant_ = false;
          schedule_arrival();
        }
        arm_service();
      });
}

void ChurnWorkload::service_next() {
  if (flows_.empty()) return;
  if (cursor_ >= flows_.size()) cursor_ = 0;
  Flow& f = flows_[cursor_];
  const std::uint32_t train = std::min(f.remaining_packets, config_.train_length);
  const FlowSpec spec = spec_for(f);
  for (std::uint32_t i = 0; i < train; ++i) {
    net::Packet pkt = make_packet(spec, ids_, sim_.now(), f.sent++);
    ++packets_sent_;
    bytes_sent_ += pkt.wire_bytes;
    router_.device().submit(std::move(pkt));
  }
  f.remaining_packets -= train;
  if (f.remaining_packets == 0) {
    router_.unregister_flow(f.flow_id);
    ++flows_completed_;
    // Swap-remove keeps the vector dense; the cursor stays put so the
    // swapped-in flow is serviced next visit.
    flows_[cursor_] = flows_.back();
    flows_.pop_back();
  } else {
    ++cursor_;
  }
}

}  // namespace flowvalve::traffic
