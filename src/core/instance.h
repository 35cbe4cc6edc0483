// Instance: the runtime (and serialized) form of one abstract object —
// one node of the attributed graph.
//
// An instance holds one slot per class attribute (value + out-of-date /
// subscribed flags) and one edge list per relationship port. The flags are
// part of the persistent state: an attribute may "remain out of date for
// long periods" (paper 2.2) across transactions, so the lazy-evaluation
// state must survive eviction.

#ifndef CACTIS_CORE_INSTANCE_H_
#define CACTIS_CORE_INSTANCE_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/value.h"
#include "schema/catalog.h"

namespace cactis::core {

/// One relationship edge endpoint as stored on an instance.
struct EdgeRecord {
  EdgeId id;
  InstanceId peer;
  uint32_t peer_port = 0;  // port index on the peer's class
};

/// One attribute slot.
struct AttrSlot {
  Value value;
  /// Derived attributes start out of date; intrinsic slots are never out
  /// of date.
  bool out_of_date = false;
  /// Sticky "the user asked for this value" importance (paper 2.2).
  bool subscribed = false;
};

class Instance {
 public:
  /// Builds a fresh instance of `cls` with default attribute values;
  /// derived slots start out of date.
  static Instance Create(InstanceId id, const schema::ObjectClass& cls);

  InstanceId id() const { return id_; }
  ClassId class_id() const { return class_id_; }

  std::vector<AttrSlot>& attrs() { return attrs_; }
  const std::vector<AttrSlot>& attrs() const { return attrs_; }
  std::vector<std::vector<EdgeRecord>>& ports() { return ports_; }
  const std::vector<std::vector<EdgeRecord>>& ports() const { return ports_; }

  /// Grows slot/port vectors to match an extended class definition
  /// (paper's dynamic type extension); new derived slots start out of
  /// date, new intrinsic slots take their default.
  void MigrateTo(const schema::ObjectClass& cls);

  /// Compact varint encoding for the record store (format in
  /// instance.cc).
  std::string Serialize() const;

  /// Decodes and migrates to the current class definition. Truncated,
  /// overlong or trailing data is kIoError.
  static Result<Instance> Deserialize(const std::string& payload,
                                      const schema::Catalog& catalog);

  /// Staleness cookie for the ObjectCache pointer discipline: the cache
  /// generation at which this decoded copy was last handed out. Not
  /// serialized; see ObjectCache::IsFresh().
  uint64_t cache_epoch() const { return cache_epoch_; }
  void set_cache_epoch(uint64_t epoch) { cache_epoch_ = epoch; }

 private:
  Instance() = default;

  InstanceId id_;
  ClassId class_id_;
  std::vector<AttrSlot> attrs_;
  std::vector<std::vector<EdgeRecord>> ports_;
  uint64_t cache_epoch_ = 0;
};

}  // namespace cactis::core

#endif  // CACTIS_CORE_INSTANCE_H_
