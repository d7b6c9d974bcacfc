#include "mgmt/pmgr.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/sharded_datapath.hpp"
#include "pkt/sanitize.hpp"
#include "resilience/resilience.hpp"
#include "telemetry/telemetry.hpp"

namespace rp::mgmt {

namespace {

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

bool parse_u32(std::string_view s, std::uint32_t& out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size();
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size();
}

bool parse_f64(std::string_view s, double& out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size();
}

bool parse_iface(std::string_view s, pkt::IfIndex& out) {
  if (s.starts_with("if")) s.remove_prefix(2);
  std::uint32_t v;
  if (!parse_u32(s, v) || v >= pkt::kAnyIface) return false;
  out = static_cast<pkt::IfIndex>(v);
  return true;
}

plugin::Config parse_kv(const std::vector<std::string>& tok, std::size_t from) {
  plugin::Config cfg;
  for (std::size_t i = from; i < tok.size(); ++i) {
    std::size_t eq = tok[i].find('=');
    if (eq == std::string::npos)
      cfg.set(tok[i], "");
    else
      cfg.set(tok[i].substr(0, eq), tok[i].substr(eq + 1));
  }
  return cfg;
}

bool parse_gate(std::string_view s, plugin::PluginType& out) {
  for (std::uint16_t t = 1; t < telemetry::kGateSlots; ++t) {
    auto type = static_cast<plugin::PluginType>(t);
    if (s == plugin::to_string(type)) {
      out = type;
      return true;
    }
  }
  return false;
}

bool parse_fault_kind(std::string_view s, resilience::FaultKind& out) {
  for (std::size_t k = 0; k < resilience::kFaultKinds; ++k) {
    auto kind = static_cast<resilience::FaultKind>(k);
    if (s == resilience::to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

bool parse_fallback(std::string_view s, resilience::Fallback& out) {
  for (auto f : {resilience::Fallback::fail_open, resilience::Fallback::fail_closed,
                 resilience::Fallback::best_effort}) {
    if (s == resilience::to_string(f)) {
      out = f;
      return true;
    }
  }
  return false;
}

const char* verdict_name(std::uint8_t v) {
  switch (static_cast<plugin::Verdict>(v)) {
    case plugin::Verdict::cont: return "cont";
    case plugin::Verdict::consumed: return "consumed";
    case plugin::Verdict::drop: return "drop";
  }
  return "?";
}

std::string format_trace(const telemetry::TraceRecord& tr) {
  std::string out = "#" + std::to_string(tr.seq) + " " + tr.key.to_string() +
                    " if" + std::to_string(tr.in_iface) + "->";
  out += tr.out_iface == pkt::kAnyIface ? "-"
                                        : "if" + std::to_string(tr.out_iface);
  out += " ";
  out += telemetry::to_string(tr.disposition);
  if (tr.disposition == telemetry::Disposition::dropped)
    out += "(" + std::string(core::to_string(
                     static_cast<core::DropReason>(tr.drop_reason))) +
           ")";
  out += " cycles=" + std::to_string(tr.total_cycles);
  for (std::uint8_t i = 0; i < tr.n_steps; ++i) {
    const auto& s = tr.steps[i];
    out += std::string("\n    ") + std::string(plugin::to_string(s.gate)) +
           ": " + verdict_name(s.verdict) + " " + std::to_string(s.cycles) +
           "cy";
  }
  return out;
}

// One line of per-check ingress-sanitization counters; shared by the
// `sanitize` command and the telemetry summary.
std::string format_sanitize(const core::CoreCounters& cc) {
  std::string out = "sanitize: dropped=" +
                    std::to_string(cc.total_sanitize_drops()) +
                    " trimmed=" + std::to_string(cc.sanitize_trimmed);
  for (std::size_t i = 1;
       i < static_cast<std::size_t>(pkt::SanitizeCheck::kCount); ++i)
    if (cc.sanitize_drops[i])
      out += " " + std::string(pkt::to_string(
                       static_cast<pkt::SanitizeCheck>(i))) +
             "=" + std::to_string(cc.sanitize_drops[i]);
  return out;
}

std::string join_from(const std::vector<std::string>& tok, std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < tok.size(); ++i) {
    if (!out.empty()) out += ' ';
    out += tok[i];
  }
  return out;
}

// Sends custom message `name` to every instance of every plugin of `type`
// on one stack; one "plugin#id: reply" line per instance that answered.
std::string broadcast_message(plugin::PluginControlUnit& pcu,
                              plugin::PluginType type, const std::string& name,
                              const plugin::Config& args) {
  std::string text;
  for (const auto& pname : pcu.plugin_names(type)) {
    plugin::Plugin* pl = pcu.find(pname);
    if (!pl) continue;
    for (auto& [id, inst] : *pl) {
      plugin::PluginMsg msg;
      msg.plugin_name = pname;
      msg.instance = id;
      msg.custom_name = name;
      msg.args = args;
      plugin::PluginReply reply;
      if (inst->handle_message(msg, reply) != Status::ok) continue;
      if (!text.empty()) text += "\n";
      text += pname + "#" + std::to_string(id) + ": " + reply.text;
    }
  }
  return text;
}

// fn(stack) for every stack the control plane drives, in slot order: the
// kernel first, then shard i at slot i + 1 (only the kernel when no datapath
// is attached).
template <class Fn>
auto per_stack(ctrl::ControlPlane& cp, Fn fn) {
  std::vector<std::invoke_result_t<Fn&, core::Stack&>> per(cp.stack_count());
  cp.for_each_stack(
      [&](core::Stack& s, std::size_t slot) { per[slot] = fn(s); });
  return per;
}

// fn(stack) summed over every stack with +=.
template <class Fn>
auto merged(ctrl::ControlPlane& cp, Fn fn) {
  auto per = per_stack(cp, fn);
  for (std::size_t i = 1; i < per.size(); ++i) per[0] += per[i];
  return per[0];
}

// Applies a setting to every stack.
template <class Fn>
void apply_all(ctrl::ControlPlane& cp, Fn fn) {
  cp.for_each_stack([&fn](core::Stack& s, std::size_t) { fn(s); });
}

// Per-stack replies joined: the kernel's first, then each non-empty shard
// reply under a "shardN:" label followed by `sep`.
std::string join_stacks(const std::vector<std::string>& per, const char* sep) {
  std::string text = per[0];
  for (std::size_t i = 1; i < per.size(); ++i)
    if (!per[i].empty())
      text += (text.empty() ? "" : "\n") + ("shard" + std::to_string(i - 1)) +
              sep + per[i];
  return text;
}

// One stack's counters behind the `telemetry` summary.
struct CounterView {
  core::CoreCounters cc;
  netdev::NicCounters nics;
  std::uint64_t samples{0};
  std::uint64_t flows_exported{0};
  std::vector<std::pair<std::string, std::uint64_t>> nic_drops;  // by name

  static CounterView of(core::Stack& s) {
    CounterView v{s.core().counters(), s.interfaces().totals(),
                  s.telemetry().samples(), s.telemetry().flows_exported(), {}};
    for (auto& nic : s.interfaces())
      if (nic->counters().rx_drops)
        v.nic_drops.emplace_back(nic->name(), nic->counters().rx_drops);
    return v;
  }
  CounterView& operator+=(const CounterView& o) {
    cc += o.cc;
    nics += o.nics;
    samples += o.samples;
    flows_exported += o.flows_exported;
    for (const auto& [name, n] : o.nic_drops) {
      auto it = std::find_if(nic_drops.begin(), nic_drops.end(),
                             [&](const auto& e) { return e.first == name; });
      if (it == nic_drops.end())
        nic_drops.emplace_back(name, n);
      else
        it->second += n;
    }
    return *this;
  }
};

// One stack's containment counters behind the `resilience` summary; the
// guard lines stay per stack.
struct FaultView {
  std::uint64_t total{0}, injected{0}, opens{0}, bypassed{0};
  std::uint64_t fallback_drops{0}, flows_rebound{0}, guards{0};
  std::uint64_t kinds[resilience::kFaultKinds]{};
  std::vector<std::string> guard_lines;

  static FaultView of(core::Stack& s) {
    const auto& res = s.resilience();
    FaultView v{res.faults_total(),   res.faults_injected(),
                res.breaker_opens(),  res.bypassed_total(),
                res.fallback_drops(), res.flows_rebound(),
                res.guard_count(),    {},
                {}};
    for (std::size_t k = 0; k < resilience::kFaultKinds; ++k)
      v.kinds[k] = res.fault_kind_total(static_cast<resilience::FaultKind>(k));
    res.for_each_guard([&](const resilience::InstanceGuard& g) {
      v.guard_lines.push_back(
          (g.inst->owner() ? g.inst->owner()->name() : std::string("?")) +
          "#" + std::to_string(g.inst->id()) + ": " +
          std::string(resilience::to_string(g.breaker.state)) +
          " faults=" + std::to_string(g.faults) +
          " bypassed=" + std::to_string(g.bypassed) +
          " opens=" + std::to_string(g.breaker.opens));
    });
    return v;
  }
  FaultView& operator+=(const FaultView& o) {
    total += o.total;
    injected += o.injected;
    opens += o.opens;
    bypassed += o.bypassed;
    fallback_drops += o.fallback_drops;
    flows_rebound += o.flows_rebound;
    guards += o.guards;
    for (std::size_t k = 0; k < resilience::kFaultKinds; ++k)
      kinds[k] += o.kinds[k];
    return *this;
  }
};

}  // namespace

PluginManager::Result PluginManager::exec(std::string_view command) {
  auto tok = split_ws(command);
  if (tok.empty() || tok[0][0] == '#') return {Status::ok, ""};
  const std::string& cmd = tok[0];

  auto usage = [&](const char* u) {
    return Result{Status::invalid_argument, std::string("usage: ") + u};
  };

  if (cmd == "modload") {
    if (tok.size() != 2) return usage("modload <module>");
    Status s = lib_.modload(tok[1]);
    return {s, s == Status::ok ? "loaded " + tok[1] : "modload failed"};
  }
  if (cmd == "modunload") {
    if (tok.size() != 2) return usage("modunload <module>");
    Status s = lib_.modunload(tok[1]);
    return {s, s == Status::ok ? "unloaded " + tok[1] : "modunload failed"};
  }
  if (cmd == "lsmod") {
    if (tok.size() != 1) return usage("lsmod");
    std::string text = "available:";
    for (const auto& m : plugin::PluginLoader::available_modules())
      text += " " + m;
    text += "\nloaded:";
    for (const auto& m : lib_.kernel().loader().loaded_modules())
      text += " " + m;
    return {Status::ok, text};
  }
  if (cmd == "create") {
    if (tok.size() < 2) return usage("create <plugin> [k=v ...]");
    plugin::InstanceId id;
    Status s = lib_.create_instance(tok[1], parse_kv(tok, 2), id);
    if (s != Status::ok) return {s, "create failed"};
    return {s, "instance " + std::to_string(id)};
  }
  if (cmd == "free") {
    if (tok.size() != 3) return usage("free <plugin> <id>");
    std::uint32_t id;
    if (!parse_u32(tok[2], id)) return usage("free <plugin> <id>");
    return {lib_.free_instance(tok[1], id), ""};
  }
  if (cmd == "bind" || cmd == "unbind") {
    if (tok.size() < 4) return usage("(un)bind <plugin> <id> <filter>");
    std::uint32_t id;
    if (!parse_u32(tok[2], id)) return usage("(un)bind <plugin> <id> <filter>");
    std::string spec = join_from(tok, 3);
    Status s = cmd == "bind" ? lib_.bind(tok[1], id, spec)
                             : lib_.unbind(tok[1], id, spec);
    return {s, s == Status::ok ? "" : "filter operation failed"};
  }
  if (cmd == "msg") {
    if (tok.size() < 4) return usage("msg <plugin> <id|-> <name> [k=v ...]");
    std::uint32_t id = plugin::kNoInstance;
    if (tok[2] != "-" && !parse_u32(tok[2], id))
      return usage("msg <plugin> <id|-> <name> [k=v ...]");
    auto reply = lib_.message(tok[1], id, tok[3], parse_kv(tok, 4));
    return {reply.status, reply.text};
  }
  if (cmd == "attach") {
    if (tok.size() != 4) return usage("attach <plugin> <id> <iface>");
    std::uint32_t id;
    pkt::IfIndex iface;
    if (!parse_u32(tok[2], id) || !parse_iface(tok[3], iface))
      return usage("attach <plugin> <id> <iface>");
    return {lib_.attach_scheduler(tok[1], id, iface), ""};
  }
  if (cmd == "aiu") {
    // Classifier introspection: flow-cache statistics and per-gate filter
    // counts — what an operator checks before/after reconfiguration.
    if (tok.size() != 1) return usage("aiu");
    auto& a = lib_.kernel().aiu();
    const auto& ft = a.flow_table();
    const auto& fs = ft.stats();
    std::string text =
        "flows: active=" + std::to_string(ft.active()) +
        " capacity=" + std::to_string(ft.capacity()) +
        " hits=" + std::to_string(fs.hits) +
        " misses=" + std::to_string(fs.misses) +
        " recycled=" + std::to_string(fs.recycled) +
        " flushes=" + std::to_string(a.stats().cache_flushes) + "\nfilters:";
    for (std::uint16_t t = 1; t < aiu::kNumGates; ++t) {
      auto type = static_cast<plugin::PluginType>(t);
      auto* table = a.filter_table(type);
      if (table && table->size())
        text += " " + std::string(plugin::to_string(type)) + "=" +
                std::to_string(table->size());
    }
    return {Status::ok, text};
  }
  if (cmd == "telemetry") {
    auto& tel = lib_.kernel().telemetry();
    // telemetry -> one-screen summary of the observability state. Counters
    // are merged over every stack; sampling, traces and sink are the
    // kernel's.
    if (tok.size() == 1) {
      const CounterView v = merged(ctrl_, CounterView::of);
      const auto& cc = v.cc;
      std::string text =
          "sampling: 1-in-" +
          (tel.sample_every() ? std::to_string(tel.sample_every())
                              : std::string("off")) +
          " samples=" + std::to_string(v.samples) +
          " traces=" + std::to_string(tel.traces().captured()) + "/" +
          std::to_string(tel.traces().capacity()) +
          "\nflow-export: records=" + std::to_string(v.flows_exported) +
          " sink=" + tel.sink().describe() +
          "\ncore: received=" + std::to_string(cc.received) +
          " forwarded=" + std::to_string(cc.forwarded) +
          " gate_calls=" + std::to_string(cc.gate_calls) +
          " bursts=" + std::to_string(cc.bursts) +
          "\ndrops: total=" + std::to_string(cc.total_drops());
      for (std::size_t r = 1; r < static_cast<std::size_t>(core::DropReason::kCount); ++r)
        if (cc.drops[r])
          text += " " + std::string(core::to_string(
                            static_cast<core::DropReason>(r))) +
                  "=" + std::to_string(cc.drops[r]);
      text += "\ngate-batch: groups=" + std::to_string(cc.gate_groups) +
              " group_pkts=" + std::to_string(cc.gate_group_pkts) +
              " fused_bursts=" + std::to_string(cc.fused_bursts) + " hist[";
      for (std::size_t b = 0; b < core::CoreCounters::kGroupHistBuckets; ++b) {
        if (b) text += " ";
        text += std::string(core::CoreCounters::group_hist_label(b)) + "=" +
                std::to_string(cc.group_size_hist[b]);
      }
      text += "]";
      // Driver-level view: rx ring overflows used to be counted per NIC but
      // surfaced nowhere — a silent loss class. received + nic rx_drops
      // should equal what the wire offered.
      const auto& nt = v.nics;
      text += "\nnics: rx=" + std::to_string(nt.rx_packets) +
              " rx_bytes=" + std::to_string(nt.rx_bytes) +
              " rx_drops=" + std::to_string(nt.rx_drops) +
              " tx=" + std::to_string(nt.tx_packets) +
              " tx_bytes=" + std::to_string(nt.tx_bytes);
      for (const auto& [name, n] : v.nic_drops)
        text += "\n  " + name + ": rx_drops=" + std::to_string(n);
      text += "\n" + format_sanitize(cc);
      return {Status::ok, text};
    }
    const std::string& sub = tok[1];
    if (sub == "hist") {
      // telemetry hist            -> whole-pipeline cycle histogram
      // telemetry hist <gate>     -> per-gate histogram (ipopt, ipsec, ...)
      plugin::PluginType gate{};
      if (tok.size() > 3 || (tok.size() == 3 && !parse_gate(tok[2], gate)))
        return usage("telemetry hist [gate]");
      const bool pipeline = tok.size() == 2;
      auto per = per_stack(ctrl_, [&](core::Stack& s) {
        return pipeline ? s.telemetry().pipeline_hist()
                        : s.telemetry().gate_hist(gate);
      });
      for (std::size_t i = 1; i < per.size(); ++i) per[0].merge(per[i]);
      return {Status::ok,
              (pipeline ? std::string("pipeline")
                        : std::string(plugin::to_string(gate))) +
                  ": " + per[0].to_string()};
    }
    if (sub == "trace") {
      // telemetry trace [n] -> the n most recent sampled path traces.
      std::uint32_t n = 8;
      if (tok.size() > 3 || (tok.size() == 3 && !parse_u32(tok[2], n)))
        return usage("telemetry trace [n]");
      const auto& ring = tel.traces();
      if (n > ring.stored()) n = static_cast<std::uint32_t>(ring.stored());
      std::string text;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!text.empty()) text += "\n";
        text += format_trace(ring.recent(i));
      }
      return {Status::ok, text.empty() ? "no traces captured" : text};
    }
    if (sub == "sample") {
      // telemetry sample <N|off> -> instrument 1-in-N packets.
      std::uint32_t n = 0;
      if (tok.size() != 3 || (tok[2] != "off" && !parse_u32(tok[2], n)))
        return usage("telemetry sample <N|off>");
      apply_all(ctrl_,
                [n](core::Stack& s) { s.telemetry().set_sample_every(n); });
      return {Status::ok, n ? "sampling 1-in-" + std::to_string(n)
                            : std::string("sampling off")};
    }
    if (sub == "export") {
      // telemetry export -> snapshot every live flow-table entry through the
      // sink (reason=on-demand); eviction/expiry exports happen on their own.
      if (tok.size() != 2) return usage("telemetry export");
      auto& ft = lib_.kernel().aiu().flow_table();
      std::size_t n = 0;
      for (pkt::FlowIndex i = 0;
           i < static_cast<pkt::FlowIndex>(ft.capacity()); ++i) {
        const auto& r = ft.rec(i);
        if (!r.in_use) continue;
        tel.flow_closed({r.key, r.packets, r.bytes, r.first_seen, r.last_used,
                         telemetry::ExportReason::on_demand});
        ++n;
      }
      tel.sink().flush();
      return {Status::ok, "exported " + std::to_string(n) + " live flows"};
    }
    if (sub == "sink") {
      // telemetry sink mem | telemetry sink jsonl <path>
      if (tok.size() == 3 && tok[2] == "mem") {
        tel.set_sink(std::make_unique<telemetry::MemorySink>());
        return {Status::ok, tel.sink().describe()};
      }
      if (tok.size() == 4 && tok[2] == "jsonl") {
        auto sink = std::make_unique<telemetry::JsonlFileSink>(tok[3]);
        if (!sink->ok())
          return {Status::invalid_argument, "cannot open " + tok[3]};
        tel.set_sink(std::move(sink));
        return {Status::ok, tel.sink().describe()};
      }
      return usage("telemetry sink <mem | jsonl <path>>");
    }
    if (sub == "metrics") {
      // telemetry metrics -> every counter plugins registered (docs §8).
      if (tok.size() != 2) return usage("telemetry metrics");
      std::string text = telemetry::metrics().report();
      if (!text.empty() && text.back() == '\n') text.pop_back();
      return {Status::ok, text.empty() ? "no metrics registered" : text};
    }
    if (sub == "reset") {
      // Clears histograms/traces/sample counters AND the core counters so a
      // measurement window is consistent across both surfaces.
      if (tok.size() != 2) return usage("telemetry reset");
      apply_all(ctrl_, [](core::Stack& s) {
        s.telemetry().reset();
        s.core().reset_counters();
      });
      return {Status::ok, "telemetry reset"};
    }
    return {Status::invalid_argument,
            "unknown telemetry subcommand: " + sub +
                "; expected hist|trace|sample|export|sink|metrics|reset"};
  }
  if (cmd == "resilience") {
    auto& res = lib_.kernel().resilience();
    // Settings reach the supervisor of every stack.
    auto each = [this](auto fn) {
      apply_all(ctrl_, [&fn](core::Stack& s) { fn(s.resilience()); });
    };
    // resilience | resilience status -> containment/breaker overview:
    // counters merged over every stack, the kernel's guards, then each
    // shard's totals and guards.
    if (tok.size() == 1 || (tok.size() == 2 && tok[1] == "status")) {
      const auto per = per_stack(ctrl_, FaultView::of);
      FaultView sum = per[0];
      for (std::size_t i = 1; i < per.size(); ++i) sum += per[i];
      const auto& cfg = res.breaker_config();
      std::string text = "faults: total=" + std::to_string(sum.total) +
                         " injected=" + std::to_string(sum.injected);
      for (std::size_t k = 0; k < resilience::kFaultKinds; ++k)
        text += " " +
                std::string(resilience::to_string(
                    static_cast<resilience::FaultKind>(k))) +
                "=" + std::to_string(sum.kinds[k]);
      text += "\nbreakers: opens=" + std::to_string(sum.opens) +
              " bypassed=" + std::to_string(sum.bypassed) +
              " fallback_drops=" + std::to_string(sum.fallback_drops) +
              " flows_rebound=" + std::to_string(sum.flows_rebound) +
              " guards=" + std::to_string(sum.guards) +
              "\nbudget: window=" + std::to_string(cfg.window) +
              " max_faults=" + std::to_string(cfg.max_faults) +
              " cooldown=" + std::to_string(cfg.cooldown) +
              " probes=" + std::to_string(cfg.probes) +
              (res.armed() ? "\ninjection: armed" : "\ninjection: disarmed");
      for (const auto& line : per[0].guard_lines) text += "\n  " + line;
      for (std::size_t i = 1; i < per.size(); ++i) {
        text += "\n  shard" + std::to_string(i - 1) +
                ": faults=" + std::to_string(per[i].total) +
                " opens=" + std::to_string(per[i].opens);
        for (const auto& line : per[i].guard_lines) text += "\n    " + line;
      }
      return {Status::ok, text};
    }
    const std::string& sub = tok[1];
    if (sub == "events") {
      // resilience events [n] -> the n most recent recorded faults.
      std::uint32_t n = 8;
      if (tok.size() > 3 || (tok.size() == 3 && !parse_u32(tok[2], n)))
        return usage("resilience events [n]");
      const auto& evs = res.events();
      if (n > evs.size()) n = static_cast<std::uint32_t>(evs.size());
      std::string text;
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto& ev = evs[evs.size() - 1 - i];  // newest first
        if (!text.empty()) text += "\n";
        text += "[" + std::string(plugin::to_string(ev.gate)) + "] " +
                std::string(resilience::to_string(ev.kind)) + " " + ev.plugin +
                "#" + std::to_string(ev.instance) +
                (ev.injected ? " (injected)" : "");
        if (ev.cycles) text += " cycles=" + std::to_string(ev.cycles);
        if (!ev.detail.empty()) text += " \"" + ev.detail + "\"";
      }
      return {Status::ok, text.empty() ? "no faults recorded" : text};
    }
    if (sub == "budget") {
      // resilience budget                                   -> show
      // resilience budget <window> <max_faults> <cooldown> <probes>
      // resilience budget cycles <gate> <N|off>             -> cycle budget
      if (tok.size() == 2) {
        const auto& cfg = res.breaker_config();
        std::string text = "window=" + std::to_string(cfg.window) +
                           " max_faults=" + std::to_string(cfg.max_faults) +
                           " cooldown=" + std::to_string(cfg.cooldown) +
                           " probes=" + std::to_string(cfg.probes) +
                           "\ncycles:";
        for (std::uint16_t t = 1; t < aiu::kNumGates; ++t) {
          auto type = static_cast<plugin::PluginType>(t);
          text += " " + std::string(plugin::to_string(type)) + "=";
          const auto b = res.cycle_budget(type);
          text += b ? std::to_string(b) : std::string("off");
        }
        return {Status::ok, text};
      }
      if (tok[2] == "cycles") {
        plugin::PluginType gate;
        std::uint64_t n = 0;
        if (tok.size() != 5 || !parse_gate(tok[3], gate) ||
            (tok[4] != "off" && !parse_u64(tok[4], n)))
          return usage("resilience budget cycles <gate> <N|off>");
        each([&](auto& r) { r.set_cycle_budget(gate, n); });
        return {Status::ok, std::string(plugin::to_string(gate)) +
                                " cycle budget " +
                                (n ? std::to_string(n) : std::string("off"))};
      }
      std::uint32_t w, f, c, p;
      if (tok.size() != 6 || !parse_u32(tok[2], w) || !parse_u32(tok[3], f) ||
          !parse_u32(tok[4], c) || !parse_u32(tok[5], p) || w == 0 || f == 0 ||
          c == 0 || p == 0)
        return usage(
            "resilience budget [<window> <max_faults> <cooldown> <probes> | "
            "cycles <gate> <N|off>]");
      each([&](auto& r) { r.breaker_config() = {w, f, c, p}; });
      return {Status::ok, "error budget: " + std::to_string(f) + " faults per " +
                              std::to_string(w) + " calls"};
    }
    if (sub == "trip" || sub == "reset") {
      // resilience trip <plugin> <id> | resilience reset <plugin> <id> | all
      if (sub == "reset" && tok.size() == 3 && tok[2] == "all") {
        each([](auto& r) { r.reset_all(); });
        return {Status::ok, "all breakers closed, counters cleared"};
      }
      std::uint32_t id;
      if (tok.size() != 4 || !parse_u32(tok[3], id))
        return usage(sub == "trip" ? "resilience trip <plugin> <id>"
                                   : "resilience reset <plugin> <id> | all");
      if (!lib_.kernel().pcu().find_instance(tok[2], id))
        return {Status::not_found, "no instance " + tok[2] + "#" + tok[3]};
      const bool trip = sub == "trip";
      apply_all(ctrl_, [&](core::Stack& s) {
        auto* inst = s.pcu().find_instance(tok[2], id);
        if (!inst) return;
        if (trip)
          s.resilience().trip(*inst);
        else
          s.resilience().reset(*inst);
      });
      return {Status::ok, tok[2] + "#" + tok[3] +
                              (trip ? " tripped (open)" : " reset (closed)")};
    }
    if (sub == "fallback") {
      // resilience fallback                 -> show matrix
      // resilience fallback <gate> <policy>
      if (tok.size() == 2) {
        std::string text;
        for (std::uint16_t t = 1; t < aiu::kNumGates; ++t) {
          auto type = static_cast<plugin::PluginType>(t);
          if (!text.empty()) text += " ";
          text += std::string(plugin::to_string(type)) + "=" +
                  std::string(resilience::to_string(res.fallback(type)));
        }
        return {Status::ok, text};
      }
      plugin::PluginType gate;
      resilience::Fallback f;
      if (tok.size() != 4 || !parse_gate(tok[2], gate) ||
          !parse_fallback(tok[3], f))
        return usage(
            "resilience fallback [<gate> <fail_open|fail_closed|best_effort>]");
      each([&](auto& r) { r.set_fallback(gate, f); });
      return {Status::ok, std::string(plugin::to_string(gate)) + " falls back " +
                              std::string(resilience::to_string(f))};
    }
    if (sub == "inject") {
      // resilience inject off
      // resilience inject seed <n>
      // resilience inject <gate> <kind> every <N>
      // resilience inject <gate> <kind> prob <p>
      // resilience inject <gate> <kind> off
      if (tok.size() == 3 && tok[2] == "off") {
        each([](auto& r) { r.clear_injection(); });
        return {Status::ok, "injection disarmed"};
      }
      if (tok.size() == 4 && tok[2] == "seed") {
        std::uint64_t seed;
        if (!parse_u64(tok[3], seed))
          return usage("resilience inject seed <n>");
        each([&](auto& r) { r.reseed_injection(seed); });
        return {Status::ok, "injector reseeded"};
      }
      plugin::PluginType gate;
      resilience::FaultKind kind;
      if (tok.size() >= 4 && parse_gate(tok[2], gate) &&
          parse_fault_kind(tok[3], kind)) {
        if (tok.size() == 5 && tok[4] == "off") {
          each([&](auto& r) { r.set_injection(gate, kind, {}); });
          return {Status::ok, "rule cleared"};
        }
        if (tok.size() == 6 && tok[4] == "every") {
          std::uint32_t n;
          if (!parse_u32(tok[5], n) || n == 0)
            return usage("resilience inject <gate> <kind> every <N>");
          each([&](auto& r) { r.set_injection(gate, kind, {.every = n}); });
          return {Status::ok,
                  "inject " + std::string(resilience::to_string(kind)) +
                      " at " + std::string(plugin::to_string(gate)) +
                      " every " + std::to_string(n)};
        }
        if (tok.size() == 6 && tok[4] == "prob") {
          double p;
          if (!parse_f64(tok[5], p) || p <= 0.0 || p > 1.0)
            return usage("resilience inject <gate> <kind> prob <0<p<=1>");
          each([&](auto& r) {
            r.set_injection(gate, kind, {.probability = p});
          });
          return {Status::ok,
                  "inject " + std::string(resilience::to_string(kind)) +
                      " at " + std::string(plugin::to_string(gate)) +
                      " prob " + tok[5]};
        }
      }
      return usage(
          "resilience inject <off | seed <n> | <gate> <kind> "
          "<every <N> | prob <p> | off>>");
    }
    return {Status::invalid_argument,
            "unknown resilience subcommand: " + sub +
                "; expected status|events|budget|trip|reset|fallback|inject"};
  }
  if (cmd == "shard") {
    // Views of the N-worker datapath itself: `status` copies each worker's
    // lock-free snapshot (slightly stale, never blocks traffic), `sweep`
    // and `io` act on the workers and their queues. Counters, telemetry and
    // resilience of the shards' stacks are in `telemetry` / `resilience`.
    if (!ctrl_.sharded())
      return {Status::not_found, "no sharded datapath attached"};
    auto& dp = *ctrl_.sharded();
    if (tok.size() == 1 || (tok.size() == 2 && tok[1] == "status")) {
      std::string text = "workers=" + std::to_string(dp.workers()) +
                         " submitted=" + std::to_string(dp.submitted());
      for (const auto& s : dp.status_all())
        text += "\n  shard" + std::to_string(s.shard_id) +
                ": processed=" + std::to_string(s.packets_processed) +
                " bursts=" + std::to_string(s.bursts) +
                " forwarded=" + std::to_string(s.counters.forwarded) +
                " drops=" + std::to_string(s.counters.total_drops()) +
                " flows=" + std::to_string(s.flows_active) +
                " samples=" + std::to_string(s.telemetry_samples) +
                " faults=" + std::to_string(s.faults_total);
      return {Status::ok, text};
    }
    const std::string& sub = tok[1];
    if (sub == "sweep") {
      // The cutoff is a signed virtual time: larger values would wrap.
      std::uint64_t cutoff;
      if (tok.size() != 3 || !parse_u64(tok[2], cutoff) ||
          cutoff > static_cast<std::uint64_t>(
                       std::numeric_limits<netbase::SimTime>::max()))
        return usage("shard sweep <ns>");
      dp.sweep_flows(static_cast<netbase::SimTime>(cutoff));
      return {Status::ok, "swept flows idle since " + tok[2]};
    }
    if (sub == "io") {
      // Per-queue I/O backend view: backend name, queue depths/occupancy,
      // backpressure waits, RETA migrations (multiq), plus the synthesized
      // ring stats in steered mode.
      if (tok.size() != 2) return usage("shard io");
      const bool multiq = dp.backend() != nullptr;
      std::string text =
          std::string("backend=") + (multiq ? "memq" : "steered") +
          " queues=" + std::to_string(dp.workers()) +
          " migrations=" + std::to_string(dp.migrations());
      for (std::uint32_t q = 0; q < dp.workers(); ++q) {
        const auto s = dp.queue_stats(q);
        text += "\n  q" + std::to_string(q) +
                ": enq=" + std::to_string(s.rx_enqueued) +
                " drained=" + std::to_string(s.rx_drained) +
                " drops=" + std::to_string(s.rx_drops) +
                " waits=" + std::to_string(s.rx_waits);
        if (s.occupancy_samples)
          text += " avg_occ=" +
                  std::to_string(s.occupancy_sum / s.occupancy_samples);
        if (s.migrations_in || s.migrations_out)
          text += " mig_in=" + std::to_string(s.migrations_in) +
                  " mig_out=" + std::to_string(s.migrations_out);
      }
      return {Status::ok, text};
    }
    return {Status::invalid_argument,
            "unknown shard subcommand: " + sub + "; expected status|sweep|io"};
  }
  if (cmd == "sanitize") {
    // sanitize -> per-check ingress-sanitization counters, merged over every
    // stack; the state is the kernel's.
    if (tok.size() == 1) {
      std::string text = format_sanitize(
          merged(ctrl_, [](core::Stack& s) { return s.core().counters(); }));
      text += std::string("\nstate: ") +
              (lib_.kernel().core().config().sanitize ? "on" : "off");
      return {Status::ok, text};
    }
    // sanitize on|off -> toggle the gate on every stack (off exists to
    // measure its cost; the flow-key parser still fails closed on malformed
    // lengths).
    if (tok.size() == 2 && (tok[1] == "on" || tok[1] == "off")) {
      const bool on = tok[1] == "on";
      apply_all(ctrl_,
                [on](core::Stack& s) { s.core().config().sanitize = on; });
      return {Status::ok, "sanitize " + tok[1]};
    }
    return usage("sanitize [on|off]");
  }
  if (cmd == "l7") {
    // Operator surface of the stateful L7 inspection gate. status/verdicts/
    // budget/reset broadcast to every instance of every l7-type plugin;
    // `rules` targets one (plugin, instance) pair. Every subcommand reaches
    // every stack — with a sharded datapath attached, each shard's private
    // instances too (they are the ones that see traffic), via the
    // quiesce-safe gather hook.
    const std::string sub = tok.size() > 1 ? tok[1] : "status";
    if (sub == "status" || sub == "verdicts" || sub == "reset" ||
        sub == "budget") {
      plugin::Config args;
      if (sub == "budget") args = parse_kv(tok, 2);
      const std::string text = join_stacks(
          per_stack(ctrl_,
                    [&](core::Stack& s) {
                      return broadcast_message(s.pcu(), plugin::PluginType::l7,
                                               sub, args);
                    }),
          ":\n");
      return {Status::ok, text.empty() ? "no l7 instances" : text};
    }
    if (sub == "rules") {
      // l7 rules <plugin> <id> [list | clear | add <pats> | set <pats>]
      // Patterns are comma-separated with \xNN escapes (see l7ids docs).
      const char* u = "l7 rules <plugin> <id> [list|clear|add <patterns>|set "
                      "<patterns>]";
      if (tok.size() < 4) return usage(u);
      std::uint32_t id;
      if (!parse_u32(tok[3], id)) return usage(u);
      const std::string op = tok.size() > 4 ? tok[4] : "list";
      plugin::PluginMsg msg;
      msg.kind = plugin::PluginMsg::Kind::custom;
      msg.plugin_name = tok[2];
      msg.instance = id;
      msg.custom_name = "rules";
      msg.args.set("op", op);
      if (op == "add" || op == "set") {
        if (tok.size() != 6) return usage(u);
        msg.args.set("patterns", tok[5]);
      } else if (tok.size() != 5 && tok.size() != 4) {
        return usage(u);
      }
      // The per-stack generation bump makes the automaton rebuild safe
      // mid-traffic. The command succeeds if any stack's instance answered.
      const auto replies = per_stack(
          ctrl_, [&msg](core::Stack& s) { return s.pcu().dispatch(msg); });
      std::vector<std::string> texts(replies.size());
      bool any = false;
      for (std::size_t i = 0; i < replies.size(); ++i) {
        if (replies[i].status != Status::ok) continue;
        texts[i] = replies[i].text;
        any = true;
      }
      if (!any) return {replies[0].status, replies[0].text};
      return {Status::ok, join_stacks(texts, ": ")};
    }
    return {Status::invalid_argument,
            "unknown l7 subcommand: " + sub +
                "; expected status|rules|verdicts|budget|reset"};
  }
  if (cmd == "route") {
    if (tok.size() == 4 && tok[1] == "add") {
      pkt::IfIndex iface;
      if (!parse_iface(tok[3], iface)) return usage("route add <prefix> <iface>");
      return {lib_.add_route(tok[2], iface), ""};
    }
    return usage("route add <prefix> <iface>");
  }
  if (cmd == "ctrl") {
    // Live control plane (docs/control_plane.md): batched route updates,
    // batched filter churn and versioned plugin upgrades. Each command is
    // one atomic reconfiguration applied to every stack — the kernel and,
    // with a sharded datapath attached, each shard's private stack at its
    // next burst boundary via the quiesce-safe gather hook.
    const std::string sub = tok.size() > 1 ? tok[1] : "status";
    if (sub == "status") {
      if (tok.size() > 2) return usage("ctrl status");
      return {Status::ok, ctrl_.status_text()};
    }
    if (sub == "route-batch") {
      const char* u =
          "ctrl route-batch (add <prefix> <iface> | withdraw <prefix>)...";
      std::vector<route::RouteOp> ops;
      std::size_t i = 2;
      while (i < tok.size()) {
        route::RouteOp op;
        if (tok[i] == "add") {
          pkt::IfIndex iface;
          if (i + 2 >= tok.size() || !parse_iface(tok[i + 2], iface))
            return usage(u);
          auto p = netbase::IpPrefix::parse(tok[i + 1]);
          if (!p) return {Status::invalid_argument, "bad prefix " + tok[i + 1]};
          op.kind = route::RouteOp::Kind::add;
          op.prefix = *p;
          op.hop = route::NextHop{iface, {}};
          i += 3;
        } else if (tok[i] == "withdraw") {
          if (i + 1 >= tok.size()) return usage(u);
          auto p = netbase::IpPrefix::parse(tok[i + 1]);
          if (!p) return {Status::invalid_argument, "bad prefix " + tok[i + 1]};
          op.kind = route::RouteOp::Kind::withdraw;
          op.prefix = *p;
          i += 2;
        } else {
          return usage(u);
        }
        ops.push_back(op);
      }
      if (ops.empty()) return usage(u);
      auto res = ctrl_.apply_route_batch(ops);
      return {res.failed == 0 ? Status::ok : Status::invalid_argument,
              "added=" + std::to_string(res.added) +
                  " updated=" + std::to_string(res.updated) +
                  " withdrawn=" + std::to_string(res.withdrawn) +
                  " failed=" + std::to_string(res.failed)};
    }
    if (sub == "filter-batch") {
      // Filter fields are comma-separated inside the value — the pmgr
      // convention for values with spaces — e.g. add=10.0.0.0/8,*,TCP,*,80,*
      const char* u =
          "ctrl filter-batch <plugin> <id> (add=<filter>|remove=<filter>)...";
      if (tok.size() < 5) return usage(u);
      std::uint32_t id;
      if (!parse_u32(tok[3], id)) return usage(u);
      std::vector<ctrl::FilterSpecOp> ops;
      ops.reserve(tok.size() - 4);
      for (std::size_t i = 4; i < tok.size(); ++i) {
        const std::size_t eq = tok[i].find('=');
        if (eq == std::string::npos) return usage(u);
        const std::string_view key = std::string_view(tok[i]).substr(0, eq);
        ctrl::FilterSpecOp op;
        if (key == "add")
          op.kind = aiu::Aiu::FilterOp::Kind::add;
        else if (key == "remove")
          op.kind = aiu::Aiu::FilterOp::Kind::remove;
        else
          return usage(u);
        auto f = aiu::Filter::parse(std::string_view(tok[i]).substr(eq + 1));
        if (!f) return {Status::invalid_argument, "bad filter in " + tok[i]};
        op.plugin = tok[2];
        op.instance = id;
        op.filter = *f;
        ops.push_back(std::move(op));
      }
      std::string detail;
      Status s = ctrl_.apply_filter_batch(ops, &detail);
      return {s, detail};
    }
    if (sub == "upgrade") {
      const char* u = "ctrl upgrade <plugin> <old-id> <new-id> [retire]";
      if (tok.size() != 5 && tok.size() != 6) return usage(u);
      std::uint32_t from, to;
      if (!parse_u32(tok[3], from) || !parse_u32(tok[4], to)) return usage(u);
      bool retire = false;
      if (tok.size() == 6) {
        if (tok[5] != "retire") return usage(u);
        retire = true;
      }
      std::string detail;
      Status s = ctrl_.upgrade(tok[2], from, to, retire, &detail);
      if (s != Status::ok) return {s, "upgrade failed"};
      return {s, detail};
    }
    return {Status::invalid_argument,
            "unknown ctrl subcommand: " + sub +
                "; expected route-batch|filter-batch|upgrade|status"};
  }
  if (cmd == "sched") {
    // Operator surface of the scheduling gate. Each subcommand broadcasts a
    // plugin message to every instance of every sched-type plugin on every
    // stack (with a sharded datapath attached, each shard's private
    // instances too, via the quiesce-safe gather hook):
    //   sched status     per-instance queue/backlog/drop counters ("stats")
    //   sched ranks      rank-function configuration (Eiffel: rank fn,
    //                    granularity, horizon, window base, virtual clock)
    //   sched occupancy  bucket occupancy / active-flow counts (Eiffel)
    // Engines that do not implement a message simply skip it (DRR and
    // H-FSC answer status; ranks/occupancy are Eiffel-specific).
    const std::string sub = tok.size() > 1 ? tok[1] : "status";
    if (sub != "status" && sub != "ranks" && sub != "occupancy")
      return usage("sched [status|ranks|occupancy]");
    if (tok.size() > 2) return usage("sched [status|ranks|occupancy]");
    const std::string mname = sub == "status" ? "stats" : sub;
    const std::string text = join_stacks(
        per_stack(ctrl_,
                  [&mname](core::Stack& s) {
                    return broadcast_message(s.pcu(), plugin::PluginType::sched,
                                             mname, {});
                  }),
        ":\n");
    return {Status::ok, text.empty() ? "no sched instances" : text};
  }
  return {Status::invalid_argument, "unknown command: " + cmd};
}

PluginManager::Result PluginManager::run_script(std::string_view script,
                                                bool keep_going) {
  Result last;
  std::size_t pos = 0;
  while (pos <= script.size()) {
    std::size_t nl = script.find('\n', pos);
    std::string_view line = script.substr(
        pos, nl == std::string_view::npos ? nl : nl - pos);
    if (!line.empty()) {
      Result r = exec(line);
      if (!r.ok()) {
        if (!keep_going) {
          r.text = "at \"" + std::string(line) + "\": " + r.text;
          return r;
        }
      }
      last = std::move(r);
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return last;
}

}  // namespace rp::mgmt
