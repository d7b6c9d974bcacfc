// RouterKernel — one router stack (core/stack.hpp) plus the discrete-event
// loop: NIC receive rings feed the data path; when an output link goes idle
// the port is drained (FIFO first, then the port's scheduler), which is how
// the packet-scheduling plugins actually shape traffic on the simulated
// links.
//
// Packet processing itself is instantaneous in virtual time (the real CPU
// cost of the data path is what the benches measure with the host clock,
// mirroring the paper's cycle-counter methodology); virtual time advances
// with packet arrivals and link serialization.
#pragma once

#include <map>
#include <utility>

#include "core/datapath.hpp"
#include "core/stack.hpp"
#include "io/io_backend.hpp"

namespace rp::core {

class RouterKernel : public Stack {
 public:
  struct Options : Stack::Options {
    // §3.2: "If a cached flow remains idle for an extended period, its
    // cached entry in the flow table may be removed." The kernel sweeps the
    // flow table every `flow_sweep_interval` of virtual time and expires
    // entries idle longer than `flow_idle_timeout`. 0 disables sweeping.
    netbase::SimTime flow_idle_timeout{30 * netbase::kNsPerSec};
    netbase::SimTime flow_sweep_interval{netbase::kNsPerSec};
  };

  // Receive bursts: how many ring packets are handed to the core at once
  // (matches the AIU's per-chunk burst width).
  static constexpr std::size_t kRxBurst = aiu::Aiu::kMaxBurst;

  RouterKernel();
  explicit RouterKernel(Options opt);
  ~RouterKernel();

  // The single-queue device backend the event loop drains rx through (one
  // queue per NIC; see io/io_backend.hpp for the multi-queue sibling).
  io::IoBackend& io() noexcept { return io_; }

  // Convenience: add a NIC (see InterfaceTable::add).
  netdev::SimNic& add_interface(std::string name,
                                std::uint64_t bandwidth_bps = 155'000'000);

  // -- event loop --

  // Schedules an external packet arrival on `iface` at virtual time `t`.
  void inject(netbase::SimTime t, pkt::IfIndex iface, pkt::PacketPtr p);

  // Runs all events with time <= t; the clock ends at max(now, t).
  void run_until(netbase::SimTime t);
  // Runs until no events remain (all queues drained).
  void run_to_completion();

  bool idle() const noexcept { return events_.empty(); }
  std::size_t events_processed() const noexcept { return events_processed_; }
  std::size_t flows_expired() const noexcept { return flows_expired_; }

 private:
  struct Event {
    enum class Kind { arrival, tx_ready, flow_sweep } kind;
    pkt::IfIndex iface;
    pkt::PacketPtr p;
  };
  // Keyed by (time, sequence) so simultaneous events keep FIFO order.
  using EventQueue = std::map<std::pair<netbase::SimTime, std::uint64_t>, Event>;

  void dispatch(netbase::SimTime t, Event e);
  void drain_port(pkt::IfIndex iface);

  bool sweep_scheduled_{false};  // packs into the tail padding after id_
  io::SimNicBackend io_{ifs_};
  EventQueue events_;
  std::uint64_t seq_{0};
  std::size_t events_processed_{0};
  netbase::SimTime flow_idle_timeout_{0};
  netbase::SimTime flow_sweep_interval_{0};
  std::size_t flows_expired_{0};
};

}  // namespace rp::core
