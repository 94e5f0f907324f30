#include "traced.hpp"

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "app/apps.hpp"
#include "harness/run_detail.hpp"
#include "hrmc/modeled.hpp"
#include "hrmc/receiver.hpp"
#include "hrmc/sender.hpp"
#include "hrmc/wire.hpp"
#include "kern/skbuff.hpp"
#include "net/host.hpp"
#include "net/topology.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

using namespace hrmc;

namespace {

constexpr std::size_t kNotKept = std::numeric_limits<std::size_t>::max();

std::int64_t to_ns(SpanRecorder::Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Transport::rx boundary: times protocol receive processing.
class TransportProxy final : public net::Transport {
 public:
  TransportProxy(net::Transport& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}
  void rx(kern::SkBuffPtr skb) override {
    SpanRecorder::Scope s(rec_, Layer::kProtoRx, skb->size());
    inner_.rx(std::move(skb));
  }

 private:
  net::Transport& inner_;
  SpanRecorder& rec_;
};

/// Nic::attach_uplink / attach_host boundary: times the delivery into
/// the router or host stack the NIC was wired to.
class SinkProxy final : public net::PacketSink {
 public:
  SinkProxy(net::PacketSink& inner, SpanRecorder& rec, Layer layer)
      : inner_(inner), rec_(rec), layer_(layer) {}
  void deliver(kern::SkBuffPtr skb) override {
    SpanRecorder::Scope s(rec_, layer_, skb->size());
    inner_.deliver(std::move(skb));
  }

 private:
  net::PacketSink& inner_;
  SpanRecorder& rec_;
  Layer layer_;
};

/// Wraps an app callback the protocol endpoint will invoke.
void wrap_app(std::function<void()>& cb, SpanRecorder& rec) {
  cb = [inner = std::move(cb), &rec] {
    SpanRecorder::Scope s(rec, Layer::kApp, 0);
    inner();
  };
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kProtoRx: return "proto.rx";
    case Layer::kApp: return "app";
    case Layer::kNetUplink: return "net.uplink";
    case Layer::kNetHostRx: return "net.host_rx";
  }
  return "?";
}

void SpanRecorder::open(Layer layer, std::size_t bytes) {
  Totals& t = totals_[static_cast<std::size_t>(layer)];
  ++t.spans;
  t.bytes += bytes;
  const std::uint32_t id = next_id_++;
  std::size_t kept_index = kNotKept;
  if (kept_.size() < kKeptSpans) {
    kept_index = kept_.size();
    kept_.push_back(Span{id, stack_.empty() ? 0 : stack_.back().id, layer,
                         0, 0});
  }
  const Clock::time_point now = Clock::now();
  if (kept_index != kNotKept) kept_[kept_index].start_ns = to_ns(now - epoch_);
  stack_.push_back(Open{layer, id, kept_index, now, {}});
}

void SpanRecorder::close() {
  const Clock::time_point now = Clock::now();
  const Open o = stack_.back();
  stack_.pop_back();
  const Clock::duration dur = now - o.start;
  totals_[static_cast<std::size_t>(o.layer)].self += dur - o.child;
  if (!stack_.empty()) stack_.back().child += dur;
  if (o.kept_index != kNotKept) kept_[o.kept_index].end_ns = to_ns(now - epoch_);
}

void SpanRecorder::write_spans(std::ostream& out) const {
  out << "id,parent,layer,start_ns,end_ns\n";
  for (const Span& s : kept_) {
    out << s.id << ',' << s.parent << ',' << layer_name(s.layer) << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
}

TracedCell run_traced(const harness::Scenario& sc, SpanRecorder& rec) {
  if (sc.shard.enabled || !sc.faults.empty() || !sc.churn.empty() ||
      sc.hierarchy.enabled || sc.mem_budget != 0 || sc.trace.enabled) {
    throw std::invalid_argument(
        "run_traced assembles plain legacy-engine cells only");
  }
  using harness::detail::kGroupAddr;
  using harness::detail::kGroupPort;

  // Construction order below mirrors run_transfer's legacy path step for
  // step; the identity gate (events_executed, rng_digest) checks it.
  sim::Scheduler sched;
  net::Topology topo(sched, sc.topo);
  std::vector<std::unique_ptr<TransportProxy>> transport_proxies;
  std::vector<std::unique_ptr<SinkProxy>> sink_proxies;
  const net::Endpoint group{kGroupAddr, kGroupPort};

  kern::skbuff_peak_reset();

  std::vector<const harness::ModeledGroup*> modeled_of(topo.receiver_count(),
                                                       nullptr);
  for (const harness::ModeledGroup& mg : sc.modeled) {
    if (mg.receiver < modeled_of.size()) modeled_of[mg.receiver] = &mg;
  }

  const auto proxy_transport = [&](net::Host& host, net::Transport& inner) {
    transport_proxies.push_back(std::make_unique<TransportProxy>(inner, rec));
    host.register_transport(proto::kIpProtoHrmc,
                            transport_proxies.back().get());
  };

  std::vector<std::unique_ptr<proto::HrmcReceiver>> rcv_socks;
  std::vector<std::unique_ptr<proto::ModeledReceiver>> modeled_socks;
  std::vector<std::unique_ptr<app::SinkApp>> sinks;
  for (std::size_t i = 0; i < topo.receiver_count(); ++i) {
    if (const harness::ModeledGroup* mg = modeled_of[i]) {
      auto pop = std::make_unique<proto::ModeledReceiver>(
          topo.receiver(i), sc.proto, group, mg->population, mg->leaf_loss,
          topo.sender().addr());
      pop->open();
      proxy_transport(topo.receiver(i), *pop);
      rcv_socks.push_back(nullptr);
      sinks.push_back(nullptr);
      modeled_socks.push_back(std::move(pop));
      continue;
    }
    auto sock = std::make_unique<proto::HrmcReceiver>(
        topo.receiver(i), sc.proto, group, topo.sender().addr());
    app::SinkApp::Options opt;
    opt.chunk = sc.workload.chunk;
    opt.read_rate_bps = sc.workload.sink_read_rate_bps;
    opt.verify = true;
    if (sc.workload.disk_sink) opt.disk = sc.workload.disk;
    opt.seed = sim::substream_seed(sc.seed, "sink:" + std::to_string(i));
    sinks.push_back(std::make_unique<app::SinkApp>(*sock, sched, opt));
    wrap_app(sock->on_readable, rec);
    wrap_app(sock->on_complete, rec);
    sock->open();
    proxy_transport(topo.receiver(i), *sock);
    rcv_socks.push_back(std::move(sock));
    modeled_socks.push_back(nullptr);
  }

  proto::HrmcSender snd(topo.sender(), sc.proto, kGroupPort, group);
  proxy_transport(topo.sender(), snd);
  app::SourceApp::Options sopt;
  sopt.total_bytes = sc.workload.file_bytes;
  sopt.chunk = sc.workload.chunk;
  if (sc.workload.disk_source) sopt.disk = sc.workload.disk;
  sopt.seed = sim::substream_seed(sc.seed, "source");
  app::SourceApp source(snd, sched, sopt);
  wrap_app(snd.on_writable, rec);
  sched.schedule_at(sc.sender_start, [&source] { source.start(); });

  const auto proxy_nic = [&](net::Nic& nic, net::PacketSink& uplink,
                             net::PacketSink& host) {
    sink_proxies.push_back(
        std::make_unique<SinkProxy>(uplink, rec, Layer::kNetUplink));
    nic.attach_uplink(sink_proxies.back().get());
    sink_proxies.push_back(
        std::make_unique<SinkProxy>(host, rec, Layer::kNetHostRx));
    nic.attach_host(sink_proxies.back().get());
  };
  proxy_nic(topo.sender_nic(), topo.backbone(), topo.sender());
  for (std::size_t i = 0; i < topo.receiver_count(); ++i) {
    proxy_nic(topo.receiver_nic(i),
              topo.group_router(topo.receiver_group(i)), topo.receiver(i));
  }

  const auto slot_complete = [&](std::size_t i) {
    return sinks[i] ? sinks[i]->stream_complete()
                    : modeled_socks[i]->complete();
  };
  const auto done = [&] {
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      if (!slot_complete(i)) return false;
    }
    return snd.finished();
  };

  const auto t0 = SpanRecorder::Clock::now();
  sched.run_while([&] { return !done(); }, sc.time_limit);
  const auto t1 = SpanRecorder::Clock::now();

  snd.stop();
  for (auto& r : rcv_socks) {
    if (r) r->stop();
  }
  for (auto& m : modeled_socks) {
    if (m) m->stop();
  }

  TracedCell out;
  out.loop_s = std::chrono::duration<double>(t1 - t0).count();
  out.completed = true;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    if (!slot_complete(i)) out.completed = false;
    if (rcv_socks[i]) {
      if (rcv_socks[i]->stream_error()) out.any_stream_error = true;
      if (sinks[i]->verify_failed()) out.verify_ok = false;
    }
  }
  out.events_executed = sched.executed();
  out.rng_digest = harness::detail::fold_run_digest(topo, rcv_socks,
                                                    modeled_socks, sinks,
                                                    source);
  return out;
}

}  // namespace perfbench
