// Plugin and PluginInstance base classes.
//
// A Plugin is a loadable code module implementing one EISR function (one
// PluginType). A PluginInstance is a specific run-time configuration of a
// plugin (Section 3: "An instance is a specific run-time configuration of an
// individual plugin"); instances are what filters bind to and what gates
// call on the data path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "netbase/status.hpp"
#include "pkt/packet.hpp"
#include "plugin/code.hpp"
#include "plugin/message.hpp"

namespace rp::plugin {

using netbase::Status;

class Plugin;
class PluginControlUnit;

// What the gate should do with the packet after the instance returns.
enum class Verdict : std::uint8_t {
  cont,      // continue along the IP core path
  consumed,  // instance took ownership (e.g. scheduler queued it)
  drop,      // discard (policy/authentication failure, RED drop, ...)
};

// A run of packets that all resolved to the *same* plugin instance at one
// gate (the batch-native gate ABI). The IP core partitions each burst by
// resolved binding after the one-pass AIU classification and hands every
// group to the instance as one call, so dispatch, soft-state access and
// instruction-cache warmth amortize across the run instead of being paid
// per packet.
//
// Contract (docs/plugin_authoring.md §11):
//   * packets appear in arrival order; all packets of one flow that are in
//     the burst are in the run, in order (grouping never splits a flow);
//   * `soft(i)` is packet i's per-flow soft-state slot for this gate — the
//     same pointer handle_packet would have received. Different packets of
//     the run may belong to different flows, so slots differ per packet;
//   * verdicts are prefilled with Verdict::cont; an implementation only
//     writes the exceptions (drop/consumed). Ownership follows the same
//     rules as handle_packet: `consumed` means the core releases the packet.
class PacketRun {
 public:
  PacketRun(pkt::Packet* const* pkts, void** const* softs, Verdict* verdicts,
            std::size_t n) noexcept
      : pkts_(pkts), softs_(softs), verdicts_(verdicts), n_(n) {}

  std::size_t size() const noexcept { return n_; }
  pkt::Packet& packet(std::size_t i) const noexcept { return *pkts_[i]; }
  // Per-flow soft-state slot for packet i; null for flow-less packets.
  void** soft(std::size_t i) const noexcept { return softs_[i]; }

  void set_verdict(std::size_t i, Verdict v) noexcept { verdicts_[i] = v; }
  Verdict verdict(std::size_t i) const noexcept { return verdicts_[i]; }

 private:
  pkt::Packet* const* pkts_;
  void** const* softs_;
  Verdict* verdicts_;
  std::size_t n_;
};

class PluginInstance {
 public:
  virtual ~PluginInstance() = default;

  // The main packet processing function called at the gate (data path).
  // `flow_soft` points at this flow's per-gate soft-state slot in the flow
  // table (null when the packet has no flow entry); plugins may store
  // per-flow state there — e.g. the DRR plugin keeps its per-flow queue
  // pointer in it (Section 5.2).
  virtual Verdict handle_packet(pkt::Packet& p, void** flow_soft) = 0;

  // Burst entry point: one call for a whole run of packets bound to this
  // instance at one gate. The default shim loops handle_packet, so every
  // existing plugin keeps working unchanged; hot plugins override this to
  // hoist per-call work (mode checks, SA lookups, counter updates) out of
  // the per-packet loop. See PacketRun for the ordering/soft-state contract.
  virtual void handle_burst(PacketRun& run) {
    for (std::size_t i = 0; i < run.size(); ++i)
      run.set_verdict(i, handle_packet(run.packet(i), run.soft(i)));
  }

  // Called by the AIU when a flow-table entry bound to this instance is
  // removed/recycled, so the instance can release its per-flow soft state.
  // This is on the packet path: at the record cap every new flow recycles
  // the LRU entry, and that recycle calls flow_removed. It must be O(1) in
  // the number of flows the instance tracks: keep the state's own container
  // position in it (and its owner, if state can move between instances)
  // instead of searching for it (docs/plugin_authoring.md §4).
  virtual void flow_removed(void* flow_soft) { (void)flow_soft; }

  // Versioned-upgrade state handoff (docs/plugin_authoring.md §13): the AIU
  // is rebinding a flow from `from` onto this instance and offers the flow's
  // per-gate soft state for adoption. `*flow_soft` is the state `from` owns;
  // an implementation that understands it takes ownership (it may also
  // replace the pointer to convert representation) and returns true — after
  // which `from` must no longer free or touch it. Returning false (the
  // default) declines: the AIU then has `from` release the state through
  // flow_removed and the flow restarts stateless under the new instance.
  // Control path only, called between bursts — but once per bound flow, all
  // inside the upgrade stall, so it too must be O(1) in tracked flows (§13).
  virtual bool migrate_flow(PluginInstance* from, const pkt::FlowKey& key,
                            void** flow_soft) {
    (void)from;
    (void)key;
    (void)flow_soft;
    return false;
  }

  // Called by the AIU when a filter bound to this instance is removed; the
  // opaque pointer is the instance's private per-filter (hard) state.
  virtual void filter_removed(void* filter_state) { (void)filter_state; }

  // Plugin-specific per-instance message (PCU forwards unknown messages
  // that carry an instance id here).
  virtual Status handle_message(const PluginMsg& msg, PluginReply& reply) {
    (void)msg;
    (void)reply;
    return Status::unsupported;
  }

  Plugin* owner() const noexcept { return owner_; }
  InstanceId id() const noexcept { return id_; }

  // Opaque per-instance slot owned by the resilience supervisor: it caches
  // the instance's guard (circuit breaker + fault counters) here so gate
  // dispatch dereferences one pointer instead of probing a map. Null until
  // the supervisor first sees the instance; the supervisor nulls it again
  // when the instance is forgotten or the supervisor dies.
  void* resil_slot() const noexcept { return resil_slot_; }
  void set_resil_slot(void* s) noexcept { resil_slot_ = s; }

 private:
  friend class Plugin;
  Plugin* owner_{nullptr};
  InstanceId id_{kNoInstance};
  void* resil_slot_{nullptr};
};

class Plugin {
 public:
  Plugin(std::string name, PluginType type)
      : name_(std::move(name)), type_(type) {}
  virtual ~Plugin() = default;

  Plugin(const Plugin&) = delete;
  Plugin& operator=(const Plugin&) = delete;

  const std::string& name() const noexcept { return name_; }
  PluginType type() const noexcept { return type_; }
  PluginCode code() const noexcept { return code_; }
  // The PCU this plugin is registered with (set at registration, null
  // before). Instances reach kernel services published as PCU hooks — e.g.
  // the AIU's flow-offload hook — through owner()->pcu().
  PluginControlUnit* pcu() const noexcept { return pcu_; }

  // -- standardized messages (Section 4) --

  // create_instance: allocates instance data structures from `cfg`.
  Status create_instance(const Config& cfg, InstanceId& out) {
    auto inst = make_instance(cfg);
    if (!inst) return Status::invalid_argument;
    inst->owner_ = this;
    inst->id_ = next_id_++;
    out = inst->id_;
    instances_[out] = std::move(inst);
    return Status::ok;
  }

  // free_instance: removes all instance-specific data structures. The PCU
  // ensures the AIU has dropped all flow/filter references first.
  Status free_instance(InstanceId id) {
    return instances_.erase(id) ? Status::ok : Status::not_found;
  }

  PluginInstance* instance(InstanceId id) noexcept {
    auto it = instances_.find(id);
    return it == instances_.end() ? nullptr : it->second.get();
  }

  std::size_t instance_count() const noexcept { return instances_.size(); }

  // Plugin-specific message not tied to one instance.
  virtual Status handle_message(const PluginMsg& msg, PluginReply& reply) {
    (void)msg;
    (void)reply;
    return Status::unsupported;
  }

  // Iteration support (used by PCU teardown).
  auto begin() { return instances_.begin(); }
  auto end() { return instances_.end(); }

 protected:
  // Factory for a configured instance; nullptr rejects the configuration.
  virtual std::unique_ptr<PluginInstance> make_instance(const Config& cfg) = 0;

 private:
  friend class PluginControlUnit;
  std::string name_;
  PluginType type_;
  PluginCode code_{};  // assigned by the PCU at registration
  PluginControlUnit* pcu_{nullptr};  // set by the PCU at registration
  InstanceId next_id_{1};
  std::map<InstanceId, std::unique_ptr<PluginInstance>> instances_;
};

}  // namespace rp::plugin
