#include "checker/history_checker.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "store/key_space.hpp"

namespace pocc::checker {

namespace {

std::uint32_t at(const std::vector<std::uint32_t>& clock, std::uint32_t w) {
  return w < clock.size() ? clock[w] : 0;
}

void raise(std::vector<std::uint32_t>& clock, std::uint32_t w,
           std::uint32_t n) {
  if (clock.size() <= w) clock.resize(w + 1, 0);
  clock[w] = std::max(clock[w], n);
}

void merge(std::vector<std::uint32_t>& clock,
           const std::vector<std::uint32_t>& other) {
  if (clock.size() < other.size()) clock.resize(other.size(), 0);
  for (std::size_t w = 0; w < other.size(); ++w) {
    clock[w] = std::max(clock[w], other[w]);
  }
}

}  // namespace

void HistoryChecker::register_client(ClientId c, DcId dc, bool snapshot_rdv) {
  Session s;
  s.dc = dc;
  s.snapshot_rdv = snapshot_rdv;
  s.dv = VersionVector(num_dcs_);
  s.rdv = VersionVector(num_dcs_);
  s.rdv_at_issue = VersionVector(num_dcs_);
  sessions_.emplace(c, std::move(s));
}

void HistoryChecker::on_version_created(ClientId c, std::uint64_t op_id,
                                        KeyId key, Timestamp ut, DcId sr,
                                        const VersionVector& dv) {
  ++versions_registered_;
  // Proposition 2: the update timestamp strictly dominates every dependency.
  ++checks_;
  if (ut <= dv.max_entry()) {
    fail("Prop2 violated: version of '" + store::key_name(key) +
         "' ut=" + std::to_string(ut) +
         " <= max(dv)=" + std::to_string(dv.max_entry()));
  }
  VersionRecord rec;
  rec.id = VersionId{ut, sr};
  auto s = sessions_.find(c);
  if (s != sessions_.end()) {
    auto pending = s->second.pending_puts.find(op_id);
    if (pending != s->second.pending_puts.end()) {
      rec.writer = pending->second.writer;
      rec.seq = pending->second.seq;
      rec.past = std::move(pending->second.past);
      s->second.pending_puts.erase(pending);
    }
  }
  if (rec.past == nullptr) {
    // No snapshot (request issued before a session reset, or a test driving
    // the registry directly): register with an empty past — sound, merely
    // weaker (fewer causal edges to enforce on readers) — as the only
    // version of a writer of its own.
    rec.writer = writers_++;
    rec.seq = 1;
  }
  std::vector<VersionRecord>& records = registry_[key];
  records.insert(std::upper_bound(records.begin(), records.end(), rec.id,
                                  [](VersionId id, const VersionRecord& r) {
                                    return r.id.fresher_than(id);
                                  }),
                 std::move(rec));
}

void HistoryChecker::on_get_issued(ClientId c, const proto::GetReq& req) {
  auto it = sessions_.find(c);
  POCC_ASSERT(it != sessions_.end());
  Session& s = it->second;
  // Algorithm 1 conformance: the RDV on the wire must equal the mirror.
  ++checks_;
  if (!(req.rdv == s.rdv)) {
    fail("Alg1 violated: GET carries RDV " + req.rdv.to_string() +
         ", expected " + s.rdv.to_string());
  }
  s.rdv_at_issue = s.rdv;
}

void HistoryChecker::on_tx_issued(ClientId c, const proto::RoTxReq& req) {
  auto it = sessions_.find(c);
  POCC_ASSERT(it != sessions_.end());
  Session& s = it->second;
  ++checks_;
  // RO-TX carries the client's DV (see ClientEngine::make_ro_tx).
  if (!(req.rdv == s.dv)) {
    fail("Alg1 violated: RO-TX carries vector " + req.rdv.to_string() +
         ", expected DV " + s.dv.to_string());
  }
  s.rdv_at_issue = s.rdv;
}

void HistoryChecker::on_put_issued(ClientId c, const proto::PutReq& req) {
  auto it = sessions_.find(c);
  POCC_ASSERT(it != sessions_.end());
  Session& s = it->second;
  ++checks_;
  if (!(req.dv == s.dv)) {
    fail("Alg1 violated: PUT carries DV " + req.dv.to_string() +
         ", expected " + s.dv.to_string());
  }
  // The PUT continues the session's run of PUTs only if the run's every
  // earlier version is in the past (an abandoned PUT breaks the run).
  if (s.writer == kNoWriter || at(s.past, s.writer) != s.seq) {
    s.writer = writers_++;
    s.seq = 0;
  }
  // Snapshot the writer's causal past: it becomes the new version's past.
  s.pending_puts[req.op_id] =
      PendingPut{s.writer, ++s.seq, std::make_shared<const Clock>(s.past)};
}

void HistoryChecker::on_put_reply(ClientId c, const proto::PutReply& reply) {
  auto it = sessions_.find(c);
  POCC_ASSERT(it != sessions_.end());
  Session& s = it->second;
  // Alg. 1 line 12.
  s.dv.raise(s.dc, reply.ut);
  // The client's own write joins its causal past (thread-of-execution edge).
  add_version(s.past, record_for(reply.key, VersionId{reply.ut, reply.sr}));
  s.pending_puts.erase(reply.op_id);
}

std::vector<HistoryChecker::VersionRecord>::iterator
HistoryChecker::first_record(std::vector<VersionRecord>& records,
                             VersionId id) {
  return std::lower_bound(records.begin(), records.end(), id,
                          [](const VersionRecord& r, VersionId v) {
                            return v.fresher_than(r.id);
                          });
}

HistoryChecker::VersionRecord* HistoryChecker::find_version(KeyId key,
                                                            VersionId id) {
  auto it = registry_.find(key);
  if (it == registry_.end()) return nullptr;
  for (auto r = first_record(it->second, id);
       r != it->second.end() && r->id == id; ++r) {
    if (r->registered) return &*r;
  }
  return nullptr;
}

HistoryChecker::VersionRecord& HistoryChecker::record_for(KeyId key,
                                                          VersionId id) {
  std::vector<VersionRecord>& records = registry_[key];
  auto r = first_record(records, id);
  if (r != records.end() && r->id == id) return *r;
  r = records.emplace(r);
  r->id = id;
  r->writer = writers_++;
  r->seq = 1;
  r->registered = false;
  return *r;
}

bool HistoryChecker::holds(const Clock& past, const VersionRecord& r) {
  return at(past, r.writer) >= r.seq ||
         (r.alias != kNoWriter && at(past, r.alias) >= 1);
}

std::optional<VersionId> HistoryChecker::fresher_in_past(
    const Clock& past, KeyId key, VersionId than) const {
  auto it = registry_.find(key);
  if (it == registry_.end()) return std::nullopt;
  const std::vector<VersionRecord>& records = it->second;
  for (auto r = records.rbegin();
       r != records.rend() && r->id.fresher_than(than); ++r) {
    if (r->id.ut > 0 && holds(past, *r)) return r->id;
  }
  // No held version with ut > 0 is fresher than `than`. Once the past holds
  // any version of the key, the initial (0,0) counts as held too, and it is
  // fresher than `than` exactly when `than` is (0, sr > 0).
  if (than.ut != 0 || than.sr == 0) return std::nullopt;
  for (const VersionRecord& r : records) {
    if (holds(past, r)) return VersionId{};
  }
  return std::nullopt;
}

void HistoryChecker::add_version(Clock& past, VersionRecord& r) {
  if (holds(past, r)) return;
  if (at(past, r.writer) + 1 == r.seq) {
    raise(past, r.writer, r.seq);
    return;
  }
  // The past lacks an earlier version of r's run (a late reply after a
  // session reset, say): r joins under a one-version writer of its own.
  if (r.alias == kNoWriter) r.alias = writers_++;
  raise(past, r.alias, 1);
}

void HistoryChecker::check_read_item(ClientId c, Session& s,
                                     const proto::ReadItem& item,
                                     const char* op) {
  const VersionId returned =
      item.found ? VersionId{item.ut, item.sr} : VersionId{0, 0};
  // Exact causal-past rule: the freshest version of this key in the client's
  // causal past must not be fresher than the returned version. This subsumes
  // read-your-writes and monotonic reads for sticky sessions.
  ++checks_;
  const std::optional<VersionId> in_past =
      fresher_in_past(s.past, item.key, returned);
  if (in_past) {
    fail(std::string("causal GET rule violated for client ") +
         std::to_string(c) + " (" + op +
         (s.pessimistic ? ", pessimistic" : ", optimistic") + " session, dc " +
         std::to_string(s.dc) + "): read of '" + store::key_name(item.key) +
         "' returned (ut=" + std::to_string(returned.ut) +
         ",sr=" + std::to_string(returned.sr) +
         ") dv=" + item.dv.to_string() + " but causal past holds (ut=" +
         std::to_string(in_past->ut) + ",sr=" + std::to_string(in_past->sr) +
         "); session rdv=" + s.rdv.to_string());
  }
}

void HistoryChecker::absorb_read(Session& s, const proto::ReadItem& item) {
  if (!item.found) return;
  // Mirror Algorithm 1 lines 4-6 (plus the snapshot-inclusive RDV used by
  // commit-vector-gated sessions; see ClientEngine).
  s.rdv.merge_max(item.dv);
  if (s.snapshot_rdv || s.pessimistic) {
    s.rdv.raise(item.sr, item.ut);
  }
  s.dv.merge_max(s.rdv);
  s.dv.raise(item.sr, item.ut);
  // Extend the causal past with the read version and its past.
  const VersionId id{item.ut, item.sr};
  VersionRecord* rec = find_version(item.key, id);
  if (rec == nullptr) {
    fail("internal: read returned unregistered version of '" +
         store::key_name(item.key) + "'");
    rec = &record_for(item.key, id);
  } else if (rec->past != nullptr) {
    merge(s.past, *rec->past);
  }
  add_version(s.past, *rec);
}

void HistoryChecker::on_get_reply(ClientId c, const proto::GetReply& reply) {
  auto it = sessions_.find(c);
  POCC_ASSERT(it != sessions_.end());
  Session& s = it->second;
  check_read_item(c, s, reply.item, "GET");
  absorb_read(s, reply.item);
}

void HistoryChecker::on_tx_reply(ClientId c, const proto::RoTxReply& reply) {
  auto it = sessions_.find(c);
  POCC_ASSERT(it != sessions_.end());
  Session& s = it->second;
  // Per-item session rule, against the past as of transaction issue.
  for (const proto::ReadItem& item : reply.items) {
    check_read_item(c, s, item, "RO-TX");
  }
  // Causal-snapshot rule (§II-A RO-TX semantics): for returned items X of x
  // and Y of y, Y's causal past must not contain a version of x fresher than
  // the returned X (the paper's Prop. 4 establishes exactly this from the
  // visibility rule d.DV <= TV).
  for (const proto::ReadItem& y : reply.items) {
    if (!y.found) continue;
    const VersionRecord* yrec = find_version(y.key, VersionId{y.ut, y.sr});
    if (yrec == nullptr || yrec->past == nullptr) continue;
    for (const proto::ReadItem& x : reply.items) {
      if (&x == &y) continue;
      ++checks_;
      const VersionId returned_x =
          x.found ? VersionId{x.ut, x.sr} : VersionId{0, 0};
      const std::optional<VersionId> in_past =
          fresher_in_past(*yrec->past, x.key, returned_x);
      if (in_past) {
        fail("RO-TX snapshot violated for client " + std::to_string(c) +
             ": returned '" + store::key_name(x.key) +
             "'@(ut=" + std::to_string(returned_x.ut) + ") together with '" +
             store::key_name(y.key) + "'@(ut=" + std::to_string(y.ut) +
             ") whose past holds '" + store::key_name(x.key) + "'@(ut=" +
             std::to_string(in_past->ut) + ")");
      }
    }
  }
  for (const proto::ReadItem& item : reply.items) {
    absorb_read(s, item);
  }
}

void HistoryChecker::on_session_reset(ClientId c) {
  auto it = sessions_.find(c);
  POCC_ASSERT(it != sessions_.end());
  Session& s = it->second;
  // §III-B: the re-initialized session may not see items read or written in
  // the optimistic session; all session state restarts from scratch.
  s.dv = VersionVector(num_dcs_);
  s.rdv = VersionVector(num_dcs_);
  s.rdv_at_issue = VersionVector(num_dcs_);
  s.past.clear();
  s.writer = kNoWriter;
  s.seq = 0;
  s.pending_puts.clear();
  s.pessimistic = true;
}

void HistoryChecker::on_session_promoted(ClientId c) {
  auto it = sessions_.find(c);
  POCC_ASSERT(it != sessions_.end());
  it->second.pessimistic = false;
}

}  // namespace pocc::checker
