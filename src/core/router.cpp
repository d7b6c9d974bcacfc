#include "core/router.hpp"

#include <array>

namespace rp::core {

RouterKernel::RouterKernel() : RouterKernel(Options{}) {}

RouterKernel::RouterKernel(Options opt)
    : Stack(0, std::move(opt)),
      flow_idle_timeout_(opt.flow_idle_timeout),
      flow_sweep_interval_(opt.flow_sweep_interval) {}

RouterKernel::~RouterKernel() = default;

netdev::SimNic& RouterKernel::add_interface(std::string name,
                                            std::uint64_t bandwidth_bps) {
  return ifs_.add(std::move(name), bandwidth_bps);
}

void RouterKernel::inject(netbase::SimTime t, pkt::IfIndex iface,
                          pkt::PacketPtr p) {
  events_.emplace(std::make_pair(t, seq_++),
                  Event{Event::Kind::arrival, iface, std::move(p)});
}

void RouterKernel::drain_port(pkt::IfIndex iface) {
  netdev::SimNic* nic = ifs_.by_index(iface);
  if (!nic) return;
  while (nic->tx_idle(clock_.now())) {
    pkt::PacketPtr p = core_->next_for_tx(iface, clock_.now());
    if (!p) {
      // Non-work-conserving scheduler holding packets back: retry when it
      // says a packet may become eligible.
      netbase::SimTime wake = core_->next_tx_wakeup(iface, clock_.now());
      if (wake > clock_.now())
        events_.emplace(std::make_pair(wake, seq_++),
                        Event{Event::Kind::tx_ready, iface, nullptr});
      return;
    }
    netbase::SimTime done = nic->transmit(std::move(p), clock_.now());
    events_.emplace(std::make_pair(done, seq_++),
                    Event{Event::Kind::tx_ready, iface, nullptr});
  }
}

void RouterKernel::dispatch(netbase::SimTime t, Event e) {
  clock_.advance_to(t);
  ++events_processed_;
  switch (e.kind) {
    case Event::Kind::arrival: {
      netdev::SimNic* nic = ifs_.by_index(e.iface);
      if (!nic) return;
      const auto rxq = static_cast<std::uint32_t>(e.iface);
      io_.try_deliver(rxq, e.p, clock_.now());
      // Coalesce the run of same-time arrivals on this interface into the
      // receive ring so the core sees a burst (the interrupt-mitigation
      // window a real driver gives rx_burst). Stop at a time change, a
      // different event kind or interface, or a full ring — ordering and
      // drop behavior stay identical to one-at-a-time dispatch.
      while (!events_.empty()) {
        auto it = events_.begin();
        if (it->first.first != t) break;
        const Event& next = it->second;
        if (next.kind != Event::Kind::arrival || next.iface != e.iface) break;
        if (io_.rx_depth(rxq) >= nic->rx_capacity()) break;
        auto node = events_.extract(it);
        io_.try_deliver(rxq, node.mapped().p, clock_.now());
        ++events_processed_;
      }
      std::array<pkt::PacketPtr, kRxBurst> burst;
      while (io_.rx_pending(rxq)) {
        const std::size_t n = io_.rx_burst(rxq, burst);
        core_->process_burst({burst.data(), n});
      }
      // The packet may have been queued on any port; drain every port with
      // backlog (ports are few, this is cheap).
      for (pkt::IfIndex i = 0; i < ifs_.size(); ++i)
        if (core_->tx_backlog(i)) drain_port(i);
      // Arm the periodic flow-table sweep while flows are cached.
      if (flow_sweep_interval_ > 0 && !sweep_scheduled_ &&
          aiu_->flow_table().active() > 0) {
        sweep_scheduled_ = true;
        events_.emplace(std::make_pair(clock_.now() + flow_sweep_interval_,
                                       seq_++),
                        Event{Event::Kind::flow_sweep, 0, nullptr});
      }
      break;
    }
    case Event::Kind::tx_ready:
      drain_port(e.iface);
      break;
    case Event::Kind::flow_sweep: {
      flows_expired_ +=
          aiu_->flow_table().expire_idle(clock_.now() - flow_idle_timeout_);
      if (aiu_->flow_table().active() > 0) {
        events_.emplace(std::make_pair(clock_.now() + flow_sweep_interval_,
                                       seq_++),
                        Event{Event::Kind::flow_sweep, 0, nullptr});
      } else {
        sweep_scheduled_ = false;
      }
      break;
    }
  }
}

void RouterKernel::run_until(netbase::SimTime t) {
  while (!events_.empty() && events_.begin()->first.first <= t) {
    auto node = events_.extract(events_.begin());
    dispatch(node.key().first, std::move(node.mapped()));
  }
  clock_.advance_to(t);
}

void RouterKernel::run_to_completion() {
  while (!events_.empty()) {
    auto node = events_.extract(events_.begin());
    dispatch(node.key().first, std::move(node.mapped()));
  }
}

}  // namespace rp::core
