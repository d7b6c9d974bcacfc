#include "core/stack.hpp"

#include <utility>

namespace rp::core {

namespace {

telemetry::ExportReason export_reason(aiu::FlowTable::RemoveReason why) {
  using R = aiu::FlowTable::RemoveReason;
  switch (why) {
    case R::recycled: return telemetry::ExportReason::recycled;
    case R::expired: return telemetry::ExportReason::expired;
    case R::purged: return telemetry::ExportReason::purged;
    case R::cleared: return telemetry::ExportReason::cleared;
    case R::removed: break;
  }
  return telemetry::ExportReason::removed;
}

}  // namespace

Stack::Stack(std::uint32_t id, Options opt)
    : loader_(pcu_),
      routes_(opt.route_engine),
      telemetry_(std::make_unique<telemetry::Telemetry>(opt.telemetry)),
      resil_(std::make_unique<resilience::Supervisor>(opt.resilience)),
      aiu_(std::make_unique<aiu::Aiu>(pcu_, clock_, opt.aiu)),
      core_(std::make_unique<IpCore>(*aiu_, routes_, ifs_, clock_,
                                     std::move(opt.core))),
      id_(id) {
  // Freeing a plugin instance must also detach it from any output port it
  // is scheduling (the AIU's hook handles flow/filter references) and drop
  // its resilience guard (breaker state + the cached slot pointer).
  pcu_.add_purge_hook([this](plugin::PluginInstance* inst) {
    core_->detach_scheduler(inst);
    resil_->forget(inst);
  });
  // Telemetry: gate histograms + sampled tracing in the core, and flow-record
  // export whenever a flow-table entry dies (the AIU's soft state already
  // accumulates packets/bytes/first/last — §6's accounting made router-wide).
  core_->set_telemetry(telemetry_.get());
  // Resilience: every gate dispatch runs through the supervisor's guard;
  // breaker-open instances get their flows rebound at burst boundaries.
  resil_->set_aiu(aiu_.get());
  resil_->set_clock(&clock_);
  core_->set_resilience(resil_.get());
  aiu_->flow_table().set_remove_hook(
      [this](const aiu::FlowRecord& r, aiu::FlowTable::RemoveReason why) {
        telemetry_->flow_closed({r.key, r.packets, r.bytes, r.first_seen,
                                 r.last_used, export_reason(why)});
      });
}

Stack::~Stack() = default;

}  // namespace rp::core
