#include "ctrl/control_plane.hpp"

#include <mutex>

#include "parallel/sharded_datapath.hpp"

namespace rp::ctrl {

namespace {

aiu::Aiu::FilterBatchResult apply_filter_ops_on(
    plugin::PluginControlUnit& pcu, aiu::Aiu& a,
    const std::vector<FilterSpecOp>& ops) {
  std::vector<aiu::Aiu::FilterOp> resolved;
  resolved.reserve(ops.size());
  std::size_t unresolved = 0;
  for (const FilterSpecOp& op : ops) {
    plugin::Plugin* pl = pcu.find(op.plugin);
    if (!pl) {
      ++unresolved;
      continue;
    }
    aiu::Aiu::FilterOp out;
    out.kind = op.kind;
    out.gate = pl->type();
    out.filter = op.filter;
    if (op.kind == aiu::Aiu::FilterOp::Kind::add) {
      out.instance = pl->instance(op.instance);
      if (!out.instance) {
        ++unresolved;
        continue;
      }
    }
    resolved.push_back(std::move(out));
  }
  aiu::Aiu::FilterBatchResult res = a.apply_filter_batch(resolved);
  res.failed += unresolved;
  return res;
}

}  // namespace

std::size_t ControlPlane::stack_count() const noexcept {
  return 1 + (sharded_ ? sharded_->workers() : 0);
}

void ControlPlane::visit_shards(
    const std::function<void(core::Stack&, std::size_t)>& fn) {
  // gather() runs the closure on each worker thread at a burst boundary:
  // the core's forwarding memo assumes routes never mutate mid-chunk, and
  // this is exactly the quiesce hook that guarantees it.
  sharded_->gather([&fn](core::Stack& s) { fn(s, std::size_t{1} + s.id()); });
}

route::RouteBatchResult ControlPlane::apply_route_batch(
    const std::vector<route::RouteOp>& ops) {
  route::RouteBatchResult res;
  for_each_stack([&](core::Stack& s, std::size_t slot) {
    const route::RouteBatchResult r = s.routes().apply_batch(ops);
    if (slot == 0) res = r;
  });
  ++stats_.route_batches;
  stats_.routes_added += res.added;
  stats_.routes_updated += res.updated;
  stats_.routes_withdrawn += res.withdrawn;
  stats_.route_failures += res.failed;
  return res;
}

Status ControlPlane::apply_filter_batch(const std::vector<FilterSpecOp>& ops,
                                        std::string* detail) {
  aiu::Aiu::FilterBatchResult res;
  for_each_stack([&](core::Stack& s, std::size_t slot) {
    const aiu::Aiu::FilterBatchResult r =
        apply_filter_ops_on(s.pcu(), s.aiu(), ops);
    if (slot == 0) res = r;
  });
  ++stats_.filter_batches;
  stats_.filters_added += res.added;
  stats_.filters_removed += res.removed;
  stats_.filter_failures += res.failed;
  stats_.flows_invalidated += res.flows_invalidated;
  if (detail) {
    *detail = "added=" + std::to_string(res.added) +
              " removed=" + std::to_string(res.removed) +
              " failed=" + std::to_string(res.failed) +
              " flows_invalidated=" + std::to_string(res.flows_invalidated);
  }
  return res.failed == 0 ? Status::ok : Status::invalid_argument;
}

Status ControlPlane::upgrade(const std::string& plugin,
                             plugin::InstanceId from, plugin::InstanceId to,
                             bool retire, std::string* detail) {
  plugin::Plugin* pl = stack_.pcu().find(plugin);
  if (!pl) return Status::not_found;
  plugin::PluginInstance* old_inst = pl->instance(from);
  plugin::PluginInstance* new_inst = pl->instance(to);
  if (!old_inst || !new_inst || old_inst == new_inst)
    return Status::invalid_argument;

  aiu::Aiu::HandoffResult sum;
  std::mutex sum_mu;  // shards hand off concurrently
  for_each_stack([&](core::Stack& s, std::size_t) {
    plugin::Plugin* spl = s.pcu().find(plugin);
    plugin::PluginInstance* f = spl ? spl->instance(from) : nullptr;
    plugin::PluginInstance* t = spl ? spl->instance(to) : nullptr;
    if (f && t && f != t) {
      const aiu::Aiu::HandoffResult h = s.aiu().handoff_instance(f, t);
      std::lock_guard<std::mutex> lk(sum_mu);
      sum.filters_rebound += h.filters_rebound;
      sum.flows_rebound += h.flows_rebound;
      sum.state_migrated += h.state_migrated;
      sum.state_dropped += h.state_dropped;
    }
    if (retire) {
      // Everything is rebound, so the free's purge hooks find nothing; this
      // is the "retire-old" step of create-new -> migrate -> retire-old.
      plugin::PluginMsg msg;
      msg.kind = plugin::PluginMsg::Kind::free_instance;
      msg.plugin_name = plugin;
      msg.instance = from;
      s.pcu().dispatch(msg);
    }
  });
  ++stats_.upgrades;
  stats_.upgrade_filters_rebound += sum.filters_rebound;
  stats_.upgrade_flows_rebound += sum.flows_rebound;
  stats_.upgrade_state_migrated += sum.state_migrated;
  stats_.upgrade_state_dropped += sum.state_dropped;
  if (detail) {
    *detail = "filters_rebound=" + std::to_string(sum.filters_rebound) +
              " flows_rebound=" + std::to_string(sum.flows_rebound) +
              " state_migrated=" + std::to_string(sum.state_migrated) +
              " state_dropped=" + std::to_string(sum.state_dropped) +
              (retire ? " retired" : "");
  }
  return Status::ok;
}

std::string ControlPlane::status_text() const {
  const Stats& s = stats_;
  std::string out;
  out += "route_batches=" + std::to_string(s.route_batches) +
         " added=" + std::to_string(s.routes_added) +
         " updated=" + std::to_string(s.routes_updated) +
         " withdrawn=" + std::to_string(s.routes_withdrawn) +
         " failed=" + std::to_string(s.route_failures);
  out += "\nfilter_batches=" + std::to_string(s.filter_batches) +
         " added=" + std::to_string(s.filters_added) +
         " removed=" + std::to_string(s.filters_removed) +
         " failed=" + std::to_string(s.filter_failures) +
         " flows_invalidated=" + std::to_string(s.flows_invalidated);
  out += "\nupgrades=" + std::to_string(s.upgrades) +
         " filters_rebound=" + std::to_string(s.upgrade_filters_rebound) +
         " flows_rebound=" + std::to_string(s.upgrade_flows_rebound) +
         " state_migrated=" + std::to_string(s.upgrade_state_migrated) +
         " state_dropped=" + std::to_string(s.upgrade_state_dropped);
  out += "\nroutes=" + std::to_string(stack_.routes().size()) +
         " hop_slots=" + std::to_string(stack_.routes().hop_slots()) +
         " free_hops=" + std::to_string(stack_.routes().free_hop_count());
  return out;
}

}  // namespace rp::ctrl
