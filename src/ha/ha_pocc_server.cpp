#include "ha/ha_pocc_server.hpp"

namespace pocc {

HaPoccServer::HaPoccServer(NodeId self, const TopologyConfig& topology,
                           const ProtocolConfig& protocol,
                           const ServiceConfig& service, server::Context& ctx)
    : PoccServer(self, topology, protocol, service, ctx),
      gss_(topology.num_dcs) {}

void HaPoccServer::start() {
  PoccServer::start();
  ctx_.set_timer(protocol_.ha_stabilization_interval_us,
                 server::kTimerStabilization);
}

Duration HaPoccServer::on_timer(std::uint64_t timer_id) {
  if (timer_id != server::kTimerStabilization) {
    return PoccServer::on_timer(timer_id);
  }
  work_ = 0;
  // Same stabilization exchange Cure runs, but at ha_stabilization_interval
  // (§IV-C: "HA-POCC runs this stabilization protocol much less frequently
  // than Cure, because HA-POCC only needs the GSS ... during a partition").
  charge(service_.stabilization_us);
  if (self_.part == 0) {
    on_stab_report(proto::StabReport{self_, vv_});
  } else {
    ctx_.send(NodeId{local_dc(), 0}, proto::StabReport{self_, vv_});
  }
  ctx_.set_timer(protocol_.ha_stabilization_interval_us,
                 server::kTimerStabilization);
  return work_;
}

Duration HaPoccServer::on_stab_report(const proto::StabReport& msg) {
  charge(service_.stabilization_us);
  POCC_ASSERT(self_.part == 0);
  stab_reports_[msg.from.part] = msg.vv;
  if (stab_reports_.size() == topology_.partitions_per_dc) {
    VersionVector gss = stab_reports_.begin()->second;
    for (const auto& [part, vv] : stab_reports_) gss.merge_min(vv);
    for (PartitionId p = 0; p < topology_.partitions_per_dc; ++p) {
      if (p == self_.part) continue;
      ctx_.send(NodeId{local_dc(), p}, proto::GssBroadcast{gss});
    }
    on_gss_broadcast(proto::GssBroadcast{gss});
  }
  return work_;
}

Duration HaPoccServer::on_gss_broadcast(const proto::GssBroadcast& msg) {
  charge(service_.stabilization_us);
  gss_.merge_max(msg.gss);
  poke();  // pessimistic reads waiting on the GSS may now proceed
  return work_;
}

bool HaPoccServer::stable(const store::Version& v) const {
  if (v.sr == local_dc() && !v.opt_origin) return true;
  // Skip the local coordinate (see CureServer::stable): it names dependencies
  // on this DC's own items, visible here regardless of stabilization lag.
  // For opt-origin local items this is exactly the §IV-C condition — every
  // *remote* dependency replicated and stable in this DC.
  return gss_.dominates(v.commit_vector(), skip_local());
}

bool HaPoccServer::visible_to_pessimistic(const store::Version& v,
                                          const VersionVector& tv) const {
  // §IV-C: "servers can recognize a local item d created by an optimistic
  // client and make d visible to pessimistic clients only if d is stable
  // according to the pessimistic protocol." Stability is judged against the
  // transaction snapshot, not this node's GSS: TV's remote entries are
  // bounded by max(GSS at the coordinator, the client's own observed RDV),
  // so the §IV-C hazard (depending on unreplicated remote items) stays
  // excluded while every slice node of one transaction applies the same
  // predicate — required for the snapshot property.
  if (v.sr == local_dc() && v.opt_origin) {
    return v.commit_vector().leq(tv);
  }
  return true;
}

bool HaPoccServer::get_ready(const proto::GetReq& req) const {
  if (req.pessimistic) {
    return gss_.dominates(req.rdv, skip_local());
  }
  return PoccServer::get_ready(req);
}

proto::ReadItem HaPoccServer::choose_get_version(const proto::GetReq& req) {
  if (!req.pessimistic) {
    return PoccServer::choose_get_version(req);
  }
  // Pessimistic session: serve like Cure — freshest *stable* version, with
  // the opt-origin restriction folded into stability.
  proto::ReadItem item;
  item.key = req.key;
  const store::VersionChain* chain = store_.find(req.key);
  if (chain == nullptr || chain->empty()) {
    item.found = false;
    item.sr = 0;
    item.ut = 0;
    item.dv = VersionVector(topology_.num_dcs);
    charge(service_.version_hop_us);
    return item;
  }
  const auto lookup = chain->freshest_where([this](const store::Version& v) {
    return stable(v);
  });
  charge(service_.version_hop_us * static_cast<Duration>(lookup.hops));
  if (lookup.version == nullptr) {
    item.found = false;
    item.sr = 0;
    item.ut = 0;
    item.dv = VersionVector(topology_.num_dcs);
  } else {
    item.found = true;
    item.value = lookup.version->value;
    item.sr = lookup.version->sr;
    item.ut = lookup.version->ut;
    item.dv = lookup.version->dv;
  }
  item.fresher_versions = lookup.fresher;
  item.unmerged_versions = count_unmerged(*chain);
  return item;
}

VersionVector HaPoccServer::compute_tx_snapshot(
    const proto::RoTxReq& req) const {
  if (!req.pessimistic) {
    return PoccServer::compute_tx_snapshot(req);
  }
  VersionVector tv = VersionVector::max_of(gss_, req.rdv);
  tv.raise(local_dc(), vv_[local_dc()]);
  return tv;
}

bool HaPoccServer::slice_visible(const store::Version& v,
                                 const VersionVector& tv,
                                 bool pessimistic) const {
  if (pessimistic) {
    // Full commit-vector rule — see CureServer::slice_visible for why the
    // local coordinate must be part of the cut (sibling-slice consistency)
    // and why that cannot hide the client's causal past (TV covers RDV).
    return v.commit_vector().leq(tv);
  }
  return PoccServer::slice_visible(v, tv, pessimistic);
}

std::uint32_t HaPoccServer::count_unmerged(
    const store::VersionChain& chain) const {
  return chain.count_unstable([this](const store::Version& v) {
    return stable(v);
  });
}

void HaPoccServer::on_park_timeout(ClientId client, Duration blocked_us) {
  // §III-B: blocking beyond the timeout indicates a network partition; close
  // the session so the client re-initializes pessimistically.
  record_blocking(blocked_us);
  ++sessions_closed_;
  ctx_.reply(client,
             proto::SessionClosed{client, "request blocked beyond timeout"});
}

void HaPoccServer::on_slice_timeout(std::uint64_t tx_id, NodeId coordinator,
                                    Duration blocked_us) {
  ++sessions_closed_;
  if (coordinator == self_) {
    auto it = pending_tx_.find(tx_id);
    if (it != pending_tx_.end()) {
      ctx_.reply(it->second.client,
                 proto::SessionClosed{it->second.client,
                                      "transaction slice timed out"});
      pending_tx_.erase(it);
    }
    return;
  }
  proto::SliceReply reply;
  reply.tx_id = tx_id;
  reply.blocked_us = blocked_us;
  reply.aborted = true;
  ctx_.send(coordinator, std::move(reply));
}

std::uint64_t HaPoccServer::discard_lost_updates(DcId lost_dc) {
  POCC_ASSERT(lost_dc < topology_.num_dcs);
  const Timestamp received_up_to = vv_[lost_dc];
  // Drop versions depending on updates from the lost DC that never arrived
  // here. Updates *from* healthy DCs can be discarded too — exactly the cost
  // §III-B describes for optimistic operation after a DC loss.
  return store_.purge_if([&](const store::Version& v) {
    return v.dv[lost_dc] > received_up_to;
  });
}

}  // namespace pocc
