#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define PERFBENCH_HAVE_TSC 1
#endif

namespace perfbench {

std::uint64_t ticks() {
#ifdef PERFBENCH_HAVE_TSC
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

namespace {

double calibrate() {
  using clock = std::chrono::steady_clock;
  const auto w0 = clock::now();
  const std::uint64_t t0 = ticks();
  while (clock::now() - w0 < std::chrono::milliseconds(50)) {
  }
  const auto w1 = clock::now();
  const std::uint64_t t1 = ticks();
  const double ns = std::chrono::duration<double, std::nano>(w1 - w0).count();
  return t1 > t0 ? ns / static_cast<double>(t1 - t0) : 1.0;
}

}  // namespace

double ns_per_tick() {
  static const double value = calibrate();
  return value;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kNp: return "np";
    case Layer::kCore: return "core";
    case Layer::kObs: return "obs";
    case Layer::kTraffic: return "traffic";
    case Layer::kCtrlBoundary: return "ctrl.boundary";
    case Layer::kCtrlApply: return "ctrl.apply";
  }
  return "?";
}

Tracer::Tracer(std::size_t raw_capacity) : raw_capacity_(raw_capacity) {
  stack_.reserve(32);
  raw_.reserve(raw_capacity_);
}

void Tracer::enter(Layer layer, std::uint64_t packet) {
  std::uint32_t raw_index = kNoParent;
  if (raw_.size() < raw_capacity_) {
    raw_index = static_cast<std::uint32_t>(raw_.size());
    const std::uint32_t parent =
        stack_.empty() ? kNoParent : stack_.back().raw_index;
    raw_.push_back({layer, parent, 0, 0, packet});
  }
  if (!stack_.empty()) ++children_[idx(stack_.back().layer)];
  const std::uint64_t now = ticks();
  if (raw_index != kNoParent) raw_[raw_index].start = now;
  stack_.push_back({layer, now, 0, raw_index});
}

void Tracer::exit() {
  const std::uint64_t now = ticks();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = now - f.start;
  self_[idx(f.layer)] += dur - f.child;
  ++calls_[idx(f.layer)];
  if (f.raw_index != kNoParent) raw_[f.raw_index].end = now;
  if (f.layer == Layer::kCtrlApply) apply_ticks_.push_back(dur);
  if (stack_.empty()) {
    root_ticks_ += dur;
  } else {
    stack_.back().child += dur;
  }
}

std::uint64_t Tracer::total_self_ticks() const {
  std::uint64_t sum = 0;
  for (std::uint64_t t : self_) sum += t;
  return sum;
}

double Tracer::net_ticks(Layer l) const {
  const SpanCost& c = span_cost();
  return static_cast<double>(self_[idx(l)]) -
         c.inner * static_cast<double>(calls_[idx(l)]) -
         c.outer * static_cast<double>(children_[idx(l)]);
}

double Tracer::instrumentation_ticks() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < kNumLayers; ++i)
    sum += static_cast<double>(self_[i]) - net_ticks(static_cast<Layer>(i));
  return sum;
}

const SpanCost& span_cost() {
  static const SpanCost cost = [] {
    constexpr int kSpans = 200000;
    Tracer t(0);
    t.enter(Layer::kSim);
    for (int i = 0; i < kSpans; ++i) {
      t.enter(Layer::kObs, static_cast<std::uint64_t>(i));
      t.exit();
    }
    t.exit();
    return SpanCost{static_cast<double>(t.self_ticks(Layer::kObs)) / kSpans,
                    static_cast<double>(t.self_ticks(Layer::kSim)) / kSpans};
  }();
  return cost;
}

bool Tracer::write_raw(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double scale = ns_per_tick();
  const std::uint64_t origin = raw_.empty() ? 0 : raw_.front().start;
  out << "index,layer,parent,start_ns,end_ns,packet\n";
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& s = raw_[i];
    out << i << ',' << layer_name(s.layer) << ','
        << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
        << ',' << static_cast<double>(s.start - origin) * scale << ','
        << static_cast<double>(s.end - origin) * scale << ',' << s.packet
        << '\n';
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------------ checks

void DeliveryChecker::on_delivered(const net::Packet& pkt) {
  ++delivered_;
  sojourn_ns_.push_back(std::max<std::int64_t>(pkt.delivered_at - pkt.nic_arrival, 0));
  if (pkt.flow_id >= last_id_.size()) last_id_.resize(pkt.flow_id + 1024, 0);
  std::uint64_t& last = last_id_[pkt.flow_id];
  if (pkt.id <= last) ++out_of_order_;
  last = pkt.id;
}

std::uint64_t DeliveryChecker::unaccounted() const {
  const std::uint64_t seen = delivered_ + dropped_;
  return seen > submitted_ ? seen - submitted_ : submitted_ - seen;
}

DeliveryChecker::Sojourn DeliveryChecker::sojourn() const {
  Sojourn out;
  if (sojourn_ns_.empty()) return out;
  std::vector<std::int64_t> v = sojourn_ns_;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto rank = [n](double p) {
    const auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::min(std::max<std::size_t>(r, 1), n) - 1;
  };
  out.p50_us = static_cast<double>(v[rank(50.0)]) / 1e3;
  out.p99_us = static_cast<double>(v[rank(99.0)]) / 1e3;
  double sum = 0.0;
  for (std::int64_t x : v) sum += static_cast<double>(x);
  out.mean_us = sum / static_cast<double>(n) / 1e3;
  const std::size_t tail = std::max<std::size_t>(1, (n + 99) / 100);
  double tail_sum = 0.0;
  for (std::size_t i = n - tail; i < n; ++i) tail_sum += static_cast<double>(v[i]);
  out.tail_us = tail_sum / static_cast<double>(tail) / 1e3;
  return out;
}

// -------------------------------------------------------------- decorators

TapDevice::TapDevice(np::NicPipeline& inner, Tracer* tracer,
                     DeliveryChecker* checker)
    : inner_(inner), tracer_(tracer), checker_(checker) {
  inner_.set_on_delivered([this](const net::Packet& pkt) {
    if (checker_) checker_->on_delivered(pkt);
    ++feedback_calls_;
    Span s(tracer_, Layer::kTraffic, pkt.id);
    deliver(pkt);
  });
  inner_.set_on_dropped([this](const net::Packet& pkt) {
    if (checker_) checker_->on_dropped();
    ++feedback_calls_;
    Span s(tracer_, Layer::kTraffic, pkt.id);
    notify_drop(pkt);
  });
}

bool TapDevice::submit(net::Packet pkt) {
  if (checker_) checker_->on_submit();
  Span s(tracer_, Layer::kNp, pkt.id);
  return inner_.submit(std::move(pkt));
}

np::PacketProcessor::Outcome TapProcessor::process(net::Packet& pkt,
                                                   sim::SimTime now) {
  ++bursts_;
  ++packets_;
  Span s(&tracer_, Layer::kCore, pkt.id);
  return inner_.process(pkt, now);
}

void TapProcessor::process_batch(BatchSlot* slots, std::size_t n,
                                 sim::SimTime now) {
  ++bursts_;
  packets_ += n;
  Span s(&tracer_, Layer::kCore, n ? slots[0].pkt->id : 0);
  inner_.process_batch(slots, n, now);
}

void TapObserver::on_submit(const net::Packet& p, sim::SimTime t) {
  ++calls_;
  Span s(&tracer_, Layer::kObs, p.id);
  inner_.on_submit(p, t);
}
void TapObserver::on_dispatch(const net::Packet& p, unsigned w,
                              std::uint64_t seq, sim::SimTime t,
                              sim::SimDuration busy) {
  ++calls_;
  Span s(&tracer_, Layer::kObs, p.id);
  inner_.on_dispatch(p, w, seq, t, busy);
}
void TapObserver::on_drop(const net::Packet& p, np::DropReason r,
                          sim::SimTime t) {
  ++calls_;
  Span s(&tracer_, Layer::kObs, p.id);
  inner_.on_drop(p, r, t);
}
void TapObserver::on_watchdog(const net::Packet& p, unsigned w,
                              std::uint64_t seq, sim::SimTime t) {
  ++calls_;
  Span s(&tracer_, Layer::kObs, p.id);
  inner_.on_watchdog(p, w, seq, t);
}
void TapObserver::on_wire_tx(const net::Packet& p, sim::SimTime t) {
  ++calls_;
  Span s(&tracer_, Layer::kObs, p.id);
  inner_.on_wire_tx(p, t);
}
void TapObserver::on_delivered(const net::Packet& p, sim::SimTime t) {
  ++calls_;
  Span s(&tracer_, Layer::kObs, p.id);
  inner_.on_delivered(p, t);
}

np::ControlHook::Cutover TapControlHook::on_packet_boundary(unsigned worker,
                                                            sim::SimTime now,
                                                            unsigned packets) {
  Span s(&tracer_, Layer::kCtrlBoundary);
  return inner_.on_packet_boundary(worker, now, packets);
}

}  // namespace perfbench
