// Simulated network interface.
//
// Stands in for the ATM device driver of the paper's testbed. The receive
// ring timestamps packets on arrival (the paper instruments the driver with
// a cycle-counter timestamp right after DMA completes); the transmit side
// models link serialization so schedulers see a real bottleneck.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>

#include "netbase/clock.hpp"
#include "pkt/packet.hpp"

namespace rp::netdev {

struct NicCounters {
  std::uint64_t rx_packets{0};
  std::uint64_t rx_bytes{0};
  std::uint64_t rx_drops{0};  // receive ring overflow
  std::uint64_t tx_packets{0};
  std::uint64_t tx_bytes{0};

  NicCounters& operator+=(const NicCounters& o) noexcept {
    rx_packets += o.rx_packets;
    rx_bytes += o.rx_bytes;
    rx_drops += o.rx_drops;
    tx_packets += o.tx_packets;
    tx_bytes += o.tx_bytes;
    return *this;
  }
};

class SimNic {
 public:
  // A sink receives every transmitted packet together with the virtual time
  // at which its last bit leaves the wire.
  using TxSink = std::function<void(pkt::PacketPtr, netbase::SimTime)>;

  SimNic(std::string name, pkt::IfIndex index,
         std::uint64_t bandwidth_bps = 155'000'000,  // OC-3, like the paper
         netbase::SimTime propagation_delay = 0,
         std::size_t rx_ring_size = 1024,
         std::size_t mtu = 9180)  // ATM AAL5, the paper's testbed MTU
      : name_(std::move(name)),
        index_(index),
        bandwidth_bps_(bandwidth_bps),
        prop_delay_(propagation_delay),
        rx_ring_size_(rx_ring_size),
        mtu_(mtu) {}

  const std::string& name() const noexcept { return name_; }
  pkt::IfIndex index() const noexcept { return index_; }
  std::uint64_t bandwidth_bps() const noexcept { return bandwidth_bps_; }
  std::size_t mtu() const noexcept { return mtu_; }
  void set_mtu(std::size_t mtu) noexcept { mtu_ = mtu; }
  const NicCounters& counters() const noexcept { return counters_; }

  // ---- receive side (wire -> router) ----

  // Delivers a packet from the wire into the receive ring; drops on
  // overflow (false, counted in rx_drops — callers that must not lose
  // packets check the result). `now` becomes the packet's arrival timestamp
  // and the packet's in_iface is stamped with this NIC's index.
  bool deliver(pkt::PacketPtr p, netbase::SimTime now) {
    if (rx_ring_.size() >= rx_ring_size_) {
      ++counters_.rx_drops;
      return false;
    }
    p->arrival = now;
    p->in_iface = index_;
    counters_.rx_packets++;
    counters_.rx_bytes += p->size();
    rx_ring_.push_back(std::move(p));
    return true;
  }

  bool rx_pending() const noexcept { return !rx_ring_.empty(); }
  std::size_t rx_depth() const noexcept { return rx_ring_.size(); }
  std::size_t rx_capacity() const noexcept { return rx_ring_size_; }

  pkt::PacketPtr rx_pop() {
    if (rx_ring_.empty()) return nullptr;
    auto p = std::move(rx_ring_.front());
    rx_ring_.pop_front();
    return p;
  }

  // Burst drain: pops up to out.size() packets from the receive ring in
  // arrival order (what a DPDK-style rx_burst does against a descriptor
  // ring). Returns the number of slots filled.
  std::size_t rx_burst(std::span<pkt::PacketPtr> out) {
    std::size_t n = 0;
    while (n < out.size() && !rx_ring_.empty()) {
      out[n++] = std::move(rx_ring_.front());
      rx_ring_.pop_front();
    }
    return n;
  }

  // ---- transmit side (router -> wire) ----

  void set_tx_sink(TxSink sink) { tx_sink_ = std::move(sink); }

  // True if the transmitter can start a new packet at time `now`.
  bool tx_idle(netbase::SimTime now) const noexcept {
    return now >= tx_busy_until_;
  }
  netbase::SimTime tx_busy_until() const noexcept { return tx_busy_until_; }

  // Serialization time of a packet on this link. Rounded UP: truncating let
  // schedulers systematically over-admit (64B @ OC-3 lost ~3ns of wire time
  // per packet, a cumulative virtual-time drift); a link may never transmit
  // faster than its bit rate.
  netbase::SimTime tx_duration(std::size_t bytes) const noexcept {
    const auto bits_ns = static_cast<netbase::SimTime>(bytes) * 8 *
                         netbase::kNsPerSec;
    const auto bps = static_cast<netbase::SimTime>(bandwidth_bps_);
    return (bits_ns + bps - 1) / bps;
  }

  // Starts transmitting at max(now, busy_until); returns the completion
  // time. The packet reaches the sink at completion + propagation delay.
  netbase::SimTime transmit(pkt::PacketPtr p, netbase::SimTime now) {
    netbase::SimTime start = now > tx_busy_until_ ? now : tx_busy_until_;
    netbase::SimTime done = start + tx_duration(p->size());
    tx_busy_until_ = done;
    counters_.tx_packets++;
    counters_.tx_bytes += p->size();
    if (tx_sink_) tx_sink_(std::move(p), done + prop_delay_);
    return done;
  }

  void reset_counters() noexcept { counters_ = {}; }

 private:
  std::string name_;
  pkt::IfIndex index_;
  std::uint64_t bandwidth_bps_;
  netbase::SimTime prop_delay_;
  std::size_t rx_ring_size_;
  std::size_t mtu_;

  std::deque<pkt::PacketPtr> rx_ring_;
  netbase::SimTime tx_busy_until_{0};
  TxSink tx_sink_;
  NicCounters counters_;
};

}  // namespace rp::netdev
