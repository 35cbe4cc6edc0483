#include "core/eval_engine.h"

#include <algorithm>
#include <utility>

#include "core/database.h"
#include "obs/request_context.h"

namespace cactis::core {

namespace {

std::string SiteName(Database* db, const AttrSite& site) {
  auto cls = db->ClassOf(site.instance);
  std::string out = "instance " + std::to_string(site.instance.value);
  if (cls.ok()) {
    const schema::ObjectClass* c = db->catalog()->GetClass(*cls);
    if (c != nullptr && site.attr < c->attributes().size()) {
      return c->name() + "#" + std::to_string(site.instance.value) + "." +
             c->attributes()[site.attr].name;
    }
  }
  return out + ".attr" + std::to_string(site.attr);
}

}  // namespace

// --- RuleContext -----------------------------------------------------------

/// The EvalContext a rule executes against: binds one instance, routes
/// attribute reads through the engine (with synchronous fallback
/// evaluation), counts relationship crossings, and enforces concurrency
/// control on every instance the rule touches.
class RuleContext : public lang::EvalContext {
 public:
  RuleContext(Database* db, EvalEngine* engine, InstanceId self,
              const schema::ObjectClass* cls, Transaction* txn,
              bool allow_assign)
      : db_(db),
        engine_(engine),
        self_(self),
        cls_(cls),
        txn_(txn),
        allow_assign_(allow_assign) {}

  Result<Value> GetLocalAttr(const std::string& name) override {
    size_t idx = cls_->AttrIndexOf(name);
    if (idx == SIZE_MAX) {
      return Status::NotFound("class " + cls_->name() +
                              " has no attribute '" + name + "'");
    }
    return ReadAttr(AttrSite{self_, static_cast<uint32_t>(idx)}, *cls_);
  }

  bool HasLocalAttr(const std::string& name) const override {
    return cls_->AttrIndexOf(name) != SIZE_MAX;
  }

  bool HasPort(const std::string& name) const override {
    return cls_->PortIndexOf(name) != SIZE_MAX;
  }

  Result<std::vector<Neighbor>> GetNeighbors(
      const std::string& port) override {
    size_t p = cls_->PortIndexOf(port);
    if (p == SIZE_MAX) {
      return Status::NotFound("class " + cls_->name() +
                              " has no relationship '" + port + "'");
    }
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(self_));
    std::vector<Neighbor> out;
    out.reserve(inst->ports()[p].size());
    for (const EdgeRecord& e : inst->ports()[p]) {
      Neighbor n;
      n.id = e.peer;
      n.my_port = static_cast<uint32_t>(p);
      n.peer_port = e.peer_port;
      n.edge = e.id;
      out.push_back(n);
    }
    return out;
  }

  Result<Value> GetRemoteValue(const Neighbor& neighbor,
                               const std::string& name) override {
    db_->RecordCrossing(neighbor.edge);
    CACTIS_RETURN_IF_ERROR(db_->CheckRead(txn_, neighbor.id));
    CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* peer_cls,
                            db_->ClassOfInstancePtr(neighbor.id));
    size_t idx = peer_cls->ResolveProvidedValue(neighbor.peer_port, name);
    if (idx == SIZE_MAX) {
      return Status::NotFound(
          "class " + peer_cls->name() + " provides no value '" + name +
          "' across relationship '" +
          (neighbor.peer_port < peer_cls->ports().size()
               ? peer_cls->ports()[neighbor.peer_port].name
               : "?") +
          "'");
    }
    return ReadAttr(AttrSite{neighbor.id, static_cast<uint32_t>(idx)},
                    *peer_cls);
  }

  Status SetLocalAttr(const std::string& name, Value value) override {
    if (!allow_assign_) {
      return Status::InvalidArgument(
          "attribute evaluation rules may not assign attributes ('" + name +
          "'); only recovery actions may");
    }
    size_t idx = cls_->AttrIndexOf(name);
    if (idx == SIZE_MAX) {
      return Status::NotFound("class " + cls_->name() +
                              " has no attribute '" + name + "'");
    }
    const schema::AttributeDef& def = cls_->attributes()[idx];
    if (def.is_derived()) {
      return Status::InvalidArgument(
          "recovery action assigns derived attribute '" + name +
          "'; only intrinsic attributes may be given new values");
    }
    txn::TransactionDelta* log =
        txn_ == nullptr ? nullptr : &txn_->delta_;
    return db_->DoSet(log, txn_, self_, idx, std::move(value));
  }

  const lang::BuiltinRegistry& builtins() const override {
    return db_->builtins_;
  }

 private:
  /// Reads an attribute slot; when it is a derived slot that is out of
  /// date, falls back to synchronous evaluation (in the chunked path the
  /// dependencies were pre-evaluated, so this is rare and counted).
  Result<Value> ReadAttr(const AttrSite& site,
                         const schema::ObjectClass& cls) {
    CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
    const schema::AttributeDef& def = cls.attributes()[site.attr];
    const AttrSlot& slot = inst->attrs()[site.attr];
    if (def.is_derived() && slot.out_of_date) {
      ++engine_->stats_.sync_fallbacks;
      return engine_->EvalSync(site, txn_);
    }
    return slot.value;
  }

  Database* db_;
  EvalEngine* engine_;
  InstanceId self_;
  const schema::ObjectClass* cls_;
  Transaction* txn_;
  bool allow_assign_;
};

// --- Chunk dispatch --------------------------------------------------------

Status EvalEngine::RunChunk(const sched::Chunk& chunk) {
  AttrSite site{chunk.owner, chunk.attr};
  if (chunk.kind == sched::ChunkKind::kMark) return RunMarkChunk(site);
  // An evaluation chunk whose node is not requested was scheduled by a
  // drain that ended in an error and cleared the node table; nothing
  // waits on it any more.
  EvalNode* node = FindNode(site);
  if (node == nullptr || !node->requested) return Status::OK();
  switch (chunk.kind) {
    case sched::ChunkKind::kGather:
      return RunGatherChunk(site);
    case sched::ChunkKind::kResolve:
      return RunResolveChunk(chunk);
    case sched::ChunkKind::kCompute:
      return RunComputeChunk(site);
    case sched::ChunkKind::kMark:
      break;
  }
  return Status::OK();
}

// --- Marking (phase 1) -----------------------------------------------------

template <typename Fn>
Status EvalEngine::ForEachDependent(const AttrSite& site, Fn&& fn) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];

  // Local dependents within the same instance.
  for (size_t idx : cls->LocalDependents(site.attr)) {
    CACTIS_RETURN_IF_ERROR(
        fn(AttrSite{site.instance, static_cast<uint32_t>(idx)}, nullptr));
  }

  // Remote dependents across relationships. Copy the edges first:
  // fetching peers can evict this instance's block. The copy goes into a
  // reused buffer (moved out while in use, so a nested call would start
  // its own).
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  std::vector<EdgeRecord> edges = std::move(dependent_edges_);
  edges.clear();
  auto copy_port = [&](size_t port) {
    const std::vector<EdgeRecord>& on_port = inst->ports()[port];
    edges.insert(edges.end(), on_port.begin(), on_port.end());
  };
  if (def.kind == schema::AttrKind::kExport) {
    copy_port(def.export_port_index);
  } else {
    for (size_t p = 0; p < inst->ports().size(); ++p) {
      if (cls->ResolveProvidedValue(p, def.name) == site.attr) copy_port(p);
    }
  }
  const std::string& provided_name =
      def.kind == schema::AttrKind::kExport ? def.export_name : def.name;

  for (const EdgeRecord& e : edges) {
    const Database::EdgeStatEntry& stats = db_->RecordCrossing(e.id);
    CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* peer_cls,
                            db_->ClassOfInstancePtr(e.peer));
    for (size_t idx :
         peer_cls->RemoteDependents(e.peer_port, provided_name)) {
      CACTIS_RETURN_IF_ERROR(
          fn(AttrSite{e.peer, static_cast<uint32_t>(idx)}, &stats));
    }
  }
  dependent_edges_ = std::move(edges);
  return Status::OK();
}

Status EvalEngine::MarkDependentsOf(const AttrSite& site) {
  return ForEachDependent(
      site, [this](const AttrSite& dep, const Database::EdgeStatEntry* via) {
        ScheduleMark(dep, via == nullptr ? 0.0 : via->worst_case);
        return Status::OK();
      });
}

Status EvalEngine::MarkPortChanged(InstanceId instance, size_t port_index) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(instance));
  std::set<size_t> targets;
  for (size_t idx : cls->StructuralDependents(port_index)) {
    targets.insert(idx);
  }
  for (const auto& [port, name] : cls->ConsumedRemoteValues()) {
    if (port != port_index) continue;
    for (size_t idx : cls->RemoteDependents(port, name)) targets.insert(idx);
  }
  for (size_t idx : targets) {
    ScheduleMark(AttrSite{instance, static_cast<uint32_t>(idx)}, 0.0);
  }
  return Status::OK();
}

Status EvalEngine::MarkAttribute(const AttrSite& site) {
  ScheduleMark(site, 0.0);
  return Status::OK();
}

void EvalEngine::ScheduleMark(const AttrSite& site, double expected_io) {
  sched::Chunk chunk;
  chunk.kind = sched::ChunkKind::kMark;
  chunk.owner = site.instance;
  chunk.attr = site.attr;
  chunk.expected_io = expected_io;
  db_->scheduler_->Schedule(chunk);
}

Status EvalEngine::RunMarkChunk(const AttrSite& site) {
  ++stats_.mark_visits;
  db_->trace_.Record(obs::SpanKind::kMarkChunk, site.instance.value,
                     site.attr);
  // The instance may have been deleted after this chunk was scheduled
  // (delete-instance breaks all relationships first, and those markings
  // drain after the instance is gone).
  if (!db_->store_.Contains(site.instance)) return Status::OK();
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  if (site.attr >= cls->attributes().size()) {
    return Status::Internal("mark chunk for out-of-range attribute");
  }
  const schema::AttributeDef& def = cls->attributes()[site.attr];
  if (!def.is_derived()) return Status::OK();

  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  AttrSlot& slot = inst->attrs()[site.attr];
  if (slot.out_of_date) {
    // The paper's repeated-update cut-off: everything downstream is
    // already marked, so this branch terminates in O(1). An important
    // attribute lingering out of date (possible after a rollback or a
    // class extension) must still be re-established.
    ++stats_.mark_cutoffs;
    if (def.intrinsically_important() || slot.subscribed) {
      to_evaluate_.push_back({site, AttrCount(*cls)});
    }
    return Status::OK();
  }
  slot.out_of_date = true;
  bool important = def.intrinsically_important() || slot.subscribed;
  CACTIS_RETURN_IF_ERROR(db_->WriteInstance(*inst));
  ++stats_.attrs_marked;
  if (important) to_evaluate_.push_back({site, AttrCount(*cls)});
  if (db_->change_listener_) {
    db_->change_listener_(site.instance, site.attr);
  }
  return MarkDependentsOf(site);
}

// --- Evaluation (phase 2) --------------------------------------------------

Status EvalEngine::RequestEval(const AttrSite& site, uint32_t attr_count,
                               const AttrSite* waiter, EdgeId via_edge,
                               double expected_io, bool user_request) {
  ++stats_.eval_requests;
  if (site.attr >= attr_count) {
    return Status::Internal("evaluation request for out-of-range attribute");
  }
  EvalNode& node = NodeFor(site, attr_count);
  if (node.done) return Status::OK();
  if (waiter != nullptr) {
    node.waiters.push_back(*waiter);
    ++Node(*waiter).pending;
  }
  if (!node.requested) {
    node.requested = true;
    node.via_edge = via_edge;
    sched::Chunk chunk;
    chunk.kind = sched::ChunkKind::kGather;
    chunk.owner = site.instance;
    chunk.attr = site.attr;
    chunk.user_request = user_request;
    chunk.expected_io = expected_io;
    db_->scheduler_->Schedule(chunk);
  }
  return Status::OK();
}

Status EvalEngine::RunGatherChunk(const AttrSite& site) {
  db_->trace_.Record(obs::SpanKind::kGatherChunk, site.instance.value,
                     site.attr);
  EvalNode& node = Node(site);
  if (node.gathered || node.done) return Status::OK();
  if (!db_->store_.Contains(site.instance)) {
    node.gathered = true;
    return CompleteNode(site);
  }

  uint64_t before = db_->disk_.stats().reads;
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  node.io_cost += static_cast<double>(db_->disk_.stats().reads - before);

  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];
  CACTIS_ASSIGN_OR_RETURN(inst, db_->FetchInstance(site.instance));
  const AttrSlot& slot = inst->attrs()[site.attr];
  if (!def.is_derived() || !slot.out_of_date) {
    node.gathered = true;
    return CompleteNode(site);
  }

  // Request every value the rule depends on: local dependencies first,
  // then a resolve chunk per edge for each remote one (the neighbour must
  // be touched to know its class and freshness, and that touch is itself
  // schedulable work). Requesting and scheduling fault no block, so
  // `inst` stays valid throughout.
  for (const lang::Dependency& d : def.deps) {
    if (d.kind != lang::Dependency::Kind::kLocal) continue;
    size_t idx = cls->AttrIndexOf(d.name);
    if (idx == SIZE_MAX) continue;  // validated at schema time
    if (cls->attributes()[idx].is_derived() &&
        inst->attrs()[idx].out_of_date) {
      CACTIS_RETURN_IF_ERROR(
          RequestEval(AttrSite{site.instance, static_cast<uint32_t>(idx)},
                      AttrCount(*cls), &site, EdgeId(), 0.0, false));
    }
  }
  for (size_t i = 0; i < def.deps.size(); ++i) {
    const lang::Dependency& d = def.deps[i];
    // Structural dependencies need no request: the rule reads the edge
    // set directly.
    if (d.kind != lang::Dependency::Kind::kRemote) continue;
    size_t p = cls->PortIndexOf(d.port);
    if (p == SIZE_MAX) continue;
    for (const EdgeRecord& e : inst->ports()[p]) {
      ++node.pending;
      sched::Chunk chunk;
      chunk.kind = sched::ChunkKind::kResolve;
      chunk.owner = site.instance;
      chunk.attr = site.attr;
      chunk.edge = e.id;
      chunk.peer = e.peer;
      chunk.peer_port = e.peer_port;
      chunk.dep = static_cast<uint32_t>(i);
      chunk.owner_class = cls->id();
      chunk.expected_io = db_->EdgeStatsFor(e.id).decay.value();
      db_->scheduler_->Schedule(chunk);
    }
  }

  node.gathered = true;
  if (node.pending == 0) ScheduleCompute(site);
  return Status::OK();
}

Status EvalEngine::RunResolveChunk(const sched::Chunk& chunk) {
  const AttrSite parent{chunk.owner, chunk.attr};
  db_->trace_.Record(obs::SpanKind::kResolveChunk, chunk.peer.value,
                     chunk.attr);
  if (!db_->store_.Contains(chunk.peer)) return NotifyDependencyDone(parent);
  uint64_t before = db_->disk_.stats().reads;
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* peer_cls,
                          db_->ClassOfInstancePtr(chunk.peer));
  Node(parent).io_cost +=
      static_cast<double>(db_->disk_.stats().reads - before);

  const double expected_io = db_->RecordCrossing(chunk.edge).decay.value();
  // The value's name comes from the parent's rule, through the catalog:
  // looking up the parent's class by instance would touch its block.
  const schema::ObjectClass* parent_cls =
      db_->catalog()->GetClass(chunk.owner_class);
  if (parent_cls == nullptr) {
    return Status::Internal("resolve chunk for an unknown class");
  }
  const std::string& name =
      parent_cls->attributes()[chunk.attr].deps[chunk.dep].name;
  size_t idx = peer_cls->ResolveProvidedValue(chunk.peer_port, name);
  if (idx != SIZE_MAX) {
    const schema::AttributeDef& def = peer_cls->attributes()[idx];
    CACTIS_ASSIGN_OR_RETURN(Instance * peer, db_->FetchInstance(chunk.peer));
    if (def.is_derived() && peer->attrs()[idx].out_of_date) {
      CACTIS_RETURN_IF_ERROR(
          RequestEval(AttrSite{chunk.peer, static_cast<uint32_t>(idx)},
                      AttrCount(*peer_cls), &parent, chunk.edge, expected_io,
                      false));
    }
  }
  // An unresolvable name is reported by the rule itself when it actually
  // reads the value; a resolve chunk stays silent (the rule may never
  // touch this neighbour dynamically).
  return NotifyDependencyDone(parent);
}

Status EvalEngine::NotifyDependencyDone(const AttrSite& site) {
  EvalNode& node = Node(site);
  if (--node.pending == 0 && node.gathered && !node.done) {
    ScheduleCompute(site);
  }
  return Status::OK();
}

void EvalEngine::ScheduleCompute(const AttrSite& site) {
  sched::Chunk chunk;
  chunk.kind = sched::ChunkKind::kCompute;
  chunk.owner = site.instance;
  chunk.attr = site.attr;
  chunk.expected_io = 0.0;  // inputs gathered; only the owner block needed
  db_->scheduler_->Schedule(chunk);
}

Status EvalEngine::RunComputeChunk(const AttrSite& site) {
  db_->trace_.Record(obs::SpanKind::kComputeChunk, site.instance.value,
                     site.attr);
  EvalNode& node = Node(site);
  if (node.done) return Status::OK();
  if (!db_->store_.Contains(site.instance)) return CompleteNode(site);

  uint64_t before = db_->disk_.stats().reads;
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  node.io_cost += static_cast<double>(db_->disk_.stats().reads - before);

  // Re-check freshness: a synchronous fallback may have evaluated us while
  // we waited in a queue.
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  CACTIS_ASSIGN_OR_RETURN(inst, db_->FetchInstance(site.instance));
  if (!inst->attrs()[site.attr].out_of_date ||
      !cls->attributes()[site.attr].is_derived()) {
    return CompleteNode(site);
  }

  CACTIS_ASSIGN_OR_RETURN(Value value, ExecuteRule(site, current_txn_));
  CACTIS_RETURN_IF_ERROR(PublishValue(site, std::move(value)));
  return CompleteNode(site);
}

Status EvalEngine::CompleteNode(const AttrSite& site) {
  EvalNode& node = Node(site);
  if (node.done) return Status::OK();
  node.done = true;

  if (node.via_edge.valid() && db_->options_.adaptive_stats) {
    db_->EdgeStatsFor(node.via_edge)
        .decay.Record(node.io_cost, db_->options_.decay_alpha);
  }

  // A done node takes no new waiters, so the list is stable while they
  // are notified. The subtree's I/O is credited to the first waiter only.
  if (!node.waiters.empty()) Node(node.waiters.front()).io_cost += node.io_cost;
  for (const AttrSite& w : node.waiters) {
    CACTIS_RETURN_IF_ERROR(NotifyDependencyDone(w));
  }
  return Status::OK();
}

Result<Value> EvalEngine::ExecuteRule(const AttrSite& site, Transaction* txn) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];
  if (def.rule == nullptr) {
    return Status::Internal("ExecuteRule on attribute without rule: " +
                            SiteName(db_, site));
  }
  ++stats_.rule_evaluations;
  if (auto* c = obs::RequestScope::CurrentCost()) ++c->attrs_reevaluated;
  // Mirror instances (distribution layer): the owning site supplies the
  // value instead of the local rule.
  auto mirror = db_->mirror_resolvers_.find(site.instance);
  if (mirror != db_->mirror_resolvers_.end()) {
    Result<Value> fetched = mirror->second(site.attr);
    if (!fetched.ok()) {
      return Status(fetched.status().code(),
                    "fetching mirrored " + SiteName(db_, site) + ": " +
                        fetched.status().message());
    }
    return Database::CoerceToType(std::move(fetched).value(), def.type);
  }
  RuleContext ctx(db_, this, site.instance, cls, txn,
                  /*allow_assign=*/false);
  Result<Value> raw = def.rule->is_native
                          ? def.rule->native.fn(&ctx)
                          : lang::Interpreter::EvalRule(def.rule->body, &ctx);
  if (!raw.ok()) {
    return Status(raw.status().code(), "evaluating " + SiteName(db_, site) +
                                           ": " + raw.status().message());
  }
  return Database::CoerceToType(std::move(raw).value(), def.type);
}

Status EvalEngine::PublishValue(const AttrSite& site, Value value) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];

  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  AttrSlot& slot = inst->attrs()[site.attr];
  slot.value = value;
  slot.out_of_date = false;
  CACTIS_RETURN_IF_ERROR(db_->WriteInstance(*inst));

  if (def.is_constraint) {
    ++stats_.constraint_checks;
    auto ok = value.AsBool();
    if (!ok.ok()) {
      return Status::TypeMismatch("constraint " + SiteName(db_, site) +
                                  " did not evaluate to a boolean");
    }
    if (!*ok && !replay_mode_) {
      ++stats_.constraint_violations;
      violations_.push_back(site);
    }
  }
  if (def.subtype.valid()) {
    auto member = value.AsBool();
    if (member.ok()) {
      db_->UpdateSubtypeMembership(def.subtype, site.instance, *member);
    }
  }
  return Status::OK();
}

Result<Value> EvalEngine::EvalAdHoc(InstanceId instance,
                                    const schema::ObjectClass* cls,
                                    const lang::RuleBody& body,
                                    Transaction* txn) {
  RuleContext ctx(db_, this, instance, cls, txn, /*allow_assign=*/false);
  return lang::Interpreter::EvalRule(body, &ctx);
}

Result<Value> EvalEngine::EvalSync(const AttrSite& site, Transaction* txn) {
  CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                          db_->ClassOfInstancePtr(site.instance));
  const schema::AttributeDef& def = cls->attributes()[site.attr];
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  if (!def.is_derived() || !inst->attrs()[site.attr].out_of_date) {
    return inst->attrs()[site.attr].value;
  }
  if (std::find(sync_stack_.begin(), sync_stack_.end(), site) !=
      sync_stack_.end()) {
    if (def.circular) {
      // Fixed-point mode: hand back the current iterate; the engine-level
      // iteration drives convergence.
      return inst->attrs()[site.attr].value;
    }
    return Status::CycleDetected(
        "attribute dependency cycle involving " + SiteName(db_, site) +
        " (Cactis does not support data cycles)");
  }
  sync_stack_.push_back(site);
  Result<Value> value = ExecuteRule(site, txn);
  sync_stack_.pop_back();
  CACTIS_RETURN_IF_ERROR(value.status());
  CACTIS_RETURN_IF_ERROR(PublishValue(site, value.value()));
  // Re-read: PublishValue coerced nothing further, value is canonical.
  CACTIS_ASSIGN_OR_RETURN(Instance * after, db_->FetchInstance(site.instance));
  return after->attrs()[site.attr].value;
}

// --- Driving ---------------------------------------------------------------

Status EvalEngine::DrainAndCheck() {
  Status status = DrainAndCheckImpl();
  ClearNodes();
  return status;
}

Status EvalEngine::DrainAndCheckImpl() {
  for (int round = 0; ; ++round) {
    while (true) {
      CACTIS_RETURN_IF_ERROR(db_->scheduler_->RunUntilIdle(*this));
      if (to_evaluate_.empty()) break;
      while (!to_evaluate_.empty()) {
        Important root = to_evaluate_.front();
        to_evaluate_.pop_front();
        CACTIS_RETURN_IF_ERROR(RequestEval(root.site, root.attr_count,
                                           nullptr, EdgeId(), 0.0, false));
      }
    }

    // Collect stuck nodes (a dependency cycle and everything waiting on
    // it).
    std::vector<AttrSite> stuck;
    for (const TouchedRow& row : touched_) {
      const EvalNode* nodes = node_rows_[row.instance.value];
      for (uint32_t a = 0; a < row.attr_count; ++a) {
        if (nodes[a].requested && !nodes[a].done) {
          stuck.push_back(AttrSite{row.instance, a});
        }
      }
    }
    if (stuck.empty()) return Status::OK();
    std::sort(stuck.begin(), stuck.end());

    // The stuck set is the dependency cycle itself plus every attribute
    // transitively waiting on it. Only the `circular` attributes can form
    // a resolvable cycle: fix-point them; their completion unblocks the
    // (non-circular) waiters on the next drain.
    std::vector<AttrSite> circular_stuck;
    for (const AttrSite& site : stuck) {
      auto cls = db_->ClassOfInstancePtr(site.instance);
      bool circular = cls.ok() && site.attr < (*cls)->attributes().size() &&
                      (*cls)->attributes()[site.attr].circular;
      if (circular) circular_stuck.push_back(site);
    }
    if (circular_stuck.empty() || round > 8) {
      return Status::CycleDetected(
          "attribute dependency cycle involving " +
          SiteName(db_, stuck.front()) +
          (circular_stuck.empty()
               ? " (Cactis does not support data cycles; declare the "
                 "attributes `circular` for fixed-point evaluation)"
               : " (fixed-point evaluation did not settle the graph)"));
    }

    CACTIS_RETURN_IF_ERROR(FixpointEvaluate(circular_stuck));
    // Completing the fix-pointed nodes wakes their waiters; drain again.
    for (const AttrSite& site : circular_stuck) {
      CACTIS_RETURN_IF_ERROR(CompleteNode(site));
    }
  }
}

EvalEngine::EvalNode& EvalEngine::NodeFor(const AttrSite& site,
                                          uint32_t attr_count) {
  uint64_t i = site.instance.value;
  if (i >= node_rows_.size()) node_rows_.resize(i + 1, nullptr);
  EvalNode*& row = node_rows_[i];
  if (row == nullptr) {
    // Carve the row from the first pool block with room for it.
    while (pool_block_ < node_pool_.size() &&
           node_pool_[pool_block_].size() - pool_used_ < attr_count) {
      ++pool_block_;
      pool_used_ = 0;
    }
    if (pool_block_ == node_pool_.size()) {
      constexpr size_t kNodesPerBlock = 256;
      node_pool_.emplace_back(std::max<size_t>(kNodesPerBlock, attr_count));
    }
    row = node_pool_[pool_block_].data() + pool_used_;
    pool_used_ += attr_count;
    touched_.push_back({site.instance, attr_count});
  }
  return row[site.attr];
}

void EvalEngine::ClearNodes() {
  for (const TouchedRow& row : touched_) {
    EvalNode* nodes = node_rows_[row.instance.value];
    for (uint32_t a = 0; a < row.attr_count; ++a) {
      EvalNode& n = nodes[a];
      n.pending = 0;
      n.requested = n.gathered = n.done = false;
      n.io_cost = 0;
      n.via_edge = EdgeId();
      n.waiters.clear();  // keeps its capacity for the next drain
    }
    node_rows_[row.instance.value] = nullptr;
  }
  touched_.clear();
  pool_block_ = 0;
  pool_used_ = 0;
}

Status EvalEngine::FixpointEvaluate(std::vector<AttrSite> sites) {
  // Initialise every participating attribute to its declared default (the
  // lattice bottom) without triggering constraint/subtype machinery.
  for (const AttrSite& site : sites) {
    CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                            db_->ClassOfInstancePtr(site.instance));
    const Value& bottom = cls->attributes()[site.attr].default_value;
    CACTIS_ASSIGN_OR_RETURN(Instance * inst,
                            db_->FetchInstance(site.instance));
    inst->attrs()[site.attr].value = bottom;
    inst->attrs()[site.attr].out_of_date = false;
    CACTIS_RETURN_IF_ERROR(db_->WriteInstance(*inst));
  }

  int limit = db_->options_.max_fixpoint_iterations;
  for (int iter = 0; iter < limit; ++iter) {
    bool changed = false;
    for (const AttrSite& site : sites) {
      CACTIS_ASSIGN_OR_RETURN(Value value, ExecuteRule(site, current_txn_));
      CACTIS_ASSIGN_OR_RETURN(Instance * inst,
                              db_->FetchInstance(site.instance));
      if (!(inst->attrs()[site.attr].value == value)) {
        changed = true;
        CACTIS_RETURN_IF_ERROR(PublishValue(site, std::move(value)));
      }
    }
    if (!changed) return Status::OK();
  }
  return Status::CycleDetected(
      "circular attribute evaluation did not converge within " +
      std::to_string(limit) + " iterations (is the rule monotonic?)");
}

Status EvalEngine::EvaluateImportant(Transaction* txn) {
  Transaction* saved = current_txn_;
  current_txn_ = txn;
  Status status = EvaluateImportantImpl(txn);
  current_txn_ = saved;
  return status;
}

Status EvalEngine::EvaluateImportantImpl(Transaction* txn) {
  for (int round = 0; round <= db_->options_.max_recovery_rounds; ++round) {
    CACTIS_RETURN_IF_ERROR(DrainAndCheck());
    if (violations_.empty()) return Status::OK();

    std::vector<AttrSite> viols = std::exchange(violations_, {});
    for (const AttrSite& site : viols) {
      CACTIS_ASSIGN_OR_RETURN(const schema::ObjectClass* cls,
                              db_->ClassOfInstancePtr(site.instance));
      const schema::AttributeDef& def = cls->attributes()[site.attr];
      if (def.recovery == nullptr) {
        return Status::ConstraintViolation("constraint " +
                                           SiteName(db_, site) + " violated");
      }
      ++stats_.recoveries_run;
      RuleContext ctx(db_, this, site.instance, cls, txn,
                      /*allow_assign=*/true);
      CACTIS_RETURN_IF_ERROR(
          lang::Interpreter::ExecStmts(*def.recovery, &ctx));
    }
    // Let the recovery's effects propagate, then verify each predicate.
    CACTIS_RETURN_IF_ERROR(DrainAndCheck());
    for (const AttrSite& site : viols) {
      CACTIS_ASSIGN_OR_RETURN(Value v, EvalSync(site, txn));
      auto ok = v.AsBool();
      if (!ok.ok() || !*ok) {
        return Status::ConstraintViolation(
            "constraint " + SiteName(db_, site) +
            " still violated after its recovery action");
      }
    }
  }
  if (!violations_.empty()) {
    return Status::ConstraintViolation(
        "constraint recovery did not converge after " +
        std::to_string(db_->options_.max_recovery_rounds) + " rounds");
  }
  return Status::OK();
}

Result<Value> EvalEngine::DemandValue(const AttrSite& site,
                                      const schema::ObjectClass& cls,
                                      Transaction* txn, bool user_request) {
  CACTIS_RETURN_IF_ERROR(RequestEval(site, AttrCount(cls), nullptr, EdgeId(),
                                     0.0, user_request));
  CACTIS_RETURN_IF_ERROR(EvaluateImportant(txn));
  CACTIS_ASSIGN_OR_RETURN(Instance * inst, db_->FetchInstance(site.instance));
  return inst->attrs()[site.attr].value;
}

}  // namespace cactis::core
