// Fuzz target: instance record decoding (core/instance.h).
//
// The input is treated as one record payload read back from a block.
// The decoder must be total: any byte sequence either decodes or yields
// a Status, never a crash, hang, or out-of-bounds read. The harness also
// asserts the codec's contract on every input that does decode:
//   * the decoded instance carries at least its class's attribute and
//     port slots (Deserialize migrates to the current definition),
//   * re-encoding it yields bytes that decode again, and a second
//     re-encoding is byte-identical (Serialize is a fixpoint of
//     Serialize . Deserialize).
//
// Build modes: see fuzz_frame.cc.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/instance.h"
#include "schema/catalog.h"

namespace {

using cactis::core::Instance;

// Unlike assert, stays armed in NDEBUG builds (the default ctest build).
void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_record: contract violated: %s\n", what);
    std::abort();
  }
}

// Two classes, so the class id in a record selects between shapes: one
// with a port, a string and a derived int, one with two ports and ints.
const cactis::schema::Catalog& FuzzCatalog() {
  static cactis::schema::Catalog* catalog = [] {
    auto* cat = new cactis::schema::Catalog();
    cactis::schema::ClassBuilder thing(cat, "thing");
    thing.Port("peers", "link", cactis::schema::Side::kPlug);
    thing.Intrinsic("name", cactis::ValueType::kString);
    thing.Derived("shadow", cactis::ValueType::kInt, "1 + 1");
    Require(thing.Build().ok(), "build class thing");
    cactis::schema::ClassBuilder cell(cat, "cell");
    cell.Port("prev", "chain", cactis::schema::Side::kSocket);
    cell.Port("next", "chain", cactis::schema::Side::kPlug);
    cell.Intrinsic("base", cactis::ValueType::kInt);
    cell.Intrinsic("acc", cactis::ValueType::kInt);
    Require(cell.Build().ok(), "build class cell");
    return cat;
  }();
  return *catalog;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const cactis::schema::Catalog& catalog = FuzzCatalog();
  std::string payload(reinterpret_cast<const char*>(data), size);
  auto inst = Instance::Deserialize(payload, catalog);
  if (!inst.ok()) return 0;

  const cactis::schema::ObjectClass* cls = catalog.GetClass(inst->class_id());
  Require(cls != nullptr, "decoded class exists");
  Require(inst->attrs().size() >= cls->attributes().size(), "attr slots");
  Require(inst->ports().size() >= cls->ports().size(), "port slots");

  std::string once = inst->Serialize();
  auto again = Instance::Deserialize(once, catalog);
  Require(again.ok(), "re-encoded record decodes");
  Require(again->id() == inst->id() && again->class_id() == inst->class_id(),
          "ids survive a round trip");
  Require(again->Serialize() == once, "re-encoding is a fixpoint");
  return 0;
}
