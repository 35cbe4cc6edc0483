#include "core/instance.h"

#include "common/serial.h"

namespace cactis::core {

Instance Instance::Create(InstanceId id, const schema::ObjectClass& cls) {
  Instance inst;
  inst.id_ = id;
  inst.class_id_ = cls.id();
  inst.attrs_.reserve(cls.attributes().size());
  for (const schema::AttributeDef& def : cls.attributes()) {
    AttrSlot slot;
    slot.value = def.default_value;
    slot.out_of_date = def.is_derived();
    inst.attrs_.push_back(std::move(slot));
  }
  inst.ports_.resize(cls.ports().size());
  return inst;
}

void Instance::MigrateTo(const schema::ObjectClass& cls) {
  for (size_t i = attrs_.size(); i < cls.attributes().size(); ++i) {
    const schema::AttributeDef& def = cls.attributes()[i];
    AttrSlot slot;
    slot.value = def.default_value;
    slot.out_of_date = def.is_derived();
    attrs_.push_back(std::move(slot));
  }
  if (ports_.size() < cls.ports().size()) {
    ports_.resize(cls.ports().size());
  }
}

// Record format. Every id, count and port index is a LEB128 varint
// (common/serial.h), so a typical record is a few dozen bytes instead of
// a row of fixed 8-byte ids:
//
//   id  class  attr_count  { flags  value }*  port_count
//   { edge_count  { edge_id  peer  peer_port }* }*
//
// `flags` holds out_of_date (bit 0), subscribed (bit 1) and kInlineInt
// (bit 2): an int value follows as a zigzag varint, any other value as a
// ValueCodec encoding.
namespace {
constexpr uint8_t kOutOfDate = 1, kSubscribed = 2, kInlineInt = 4;
constexpr uint8_t kKnownFlags = kOutOfDate | kSubscribed | kInlineInt;
}  // namespace

std::string Instance::Serialize() const {
  BinaryWriter w;
  w.PutVarint(id_.value);
  w.PutVarint(class_id_.value);
  w.PutVarint(attrs_.size());
  for (const AttrSlot& slot : attrs_) {
    const bool is_int = slot.value.type() == ValueType::kInt;
    uint8_t flags = 0;
    if (slot.out_of_date) flags |= kOutOfDate;
    if (slot.subscribed) flags |= kSubscribed;
    if (is_int) flags |= kInlineInt;
    w.PutU8(flags);
    if (is_int) {
      w.PutZigzag(*slot.value.AsInt());
    } else {
      ValueCodec::Encode(slot.value, &w);
    }
  }
  w.PutVarint(ports_.size());
  for (const std::vector<EdgeRecord>& edges : ports_) {
    w.PutVarint(edges.size());
    for (const EdgeRecord& e : edges) {
      w.PutVarint(e.id.value);
      w.PutVarint(e.peer.value);
      w.PutVarint(e.peer_port);
    }
  }
  return w.Take();
}

Result<Instance> Instance::Deserialize(const std::string& payload,
                                       const schema::Catalog& catalog) {
  BinaryReader r(payload);
  Instance inst;
  CACTIS_ASSIGN_OR_RETURN(uint64_t id, r.GetVarint());
  CACTIS_ASSIGN_OR_RETURN(uint64_t cls, r.GetVarint());
  inst.id_ = InstanceId(id);
  inst.class_id_ = ClassId(cls);
  CACTIS_ASSIGN_OR_RETURN(uint64_t attr_count, r.GetCount());
  inst.attrs_.reserve(attr_count);
  for (uint64_t i = 0; i < attr_count; ++i) {
    CACTIS_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
    if ((flags & ~kKnownFlags) != 0) {
      return Status::IoError("unknown attribute flags in instance record");
    }
    AttrSlot slot;
    if (flags & kInlineInt) {
      CACTIS_ASSIGN_OR_RETURN(int64_t v, r.GetZigzag());
      slot.value = Value::Int(v);
    } else {
      CACTIS_ASSIGN_OR_RETURN(slot.value, ValueCodec::Decode(&r));
    }
    slot.out_of_date = (flags & kOutOfDate) != 0;
    slot.subscribed = (flags & kSubscribed) != 0;
    inst.attrs_.push_back(std::move(slot));
  }
  CACTIS_ASSIGN_OR_RETURN(uint64_t port_count, r.GetCount());
  inst.ports_.resize(port_count);
  for (std::vector<EdgeRecord>& edges : inst.ports_) {
    CACTIS_ASSIGN_OR_RETURN(uint64_t edge_count, r.GetCount());
    edges.reserve(edge_count);
    for (uint64_t e = 0; e < edge_count; ++e) {
      CACTIS_ASSIGN_OR_RETURN(uint64_t eid, r.GetVarint());
      CACTIS_ASSIGN_OR_RETURN(uint64_t peer, r.GetVarint());
      CACTIS_ASSIGN_OR_RETURN(uint64_t peer_port, r.GetVarint());
      if (peer_port > UINT32_MAX) {
        return Status::IoError("edge port index out of range");
      }
      edges.push_back(EdgeRecord{EdgeId(eid), InstanceId(peer),
                                 static_cast<uint32_t>(peer_port)});
    }
  }
  if (!r.AtEnd()) {
    return Status::IoError("trailing bytes after instance record");
  }

  const schema::ObjectClass* cls_def = catalog.GetClass(inst.class_id_);
  if (cls_def == nullptr) {
    return Status::Internal("stored instance references unknown class id " +
                            std::to_string(cls));
  }
  inst.MigrateTo(*cls_def);
  return inst;
}

}  // namespace cactis::core
