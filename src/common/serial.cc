#include "common/serial.h"

namespace cactis {

void ValueCodec::Encode(const Value& v, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->PutBool(*v.AsBool());
      break;
    case ValueType::kInt:
      w->PutI64(*v.AsInt());
      break;
    case ValueType::kReal:
      w->PutDouble(*v.AsReal());
      break;
    case ValueType::kString:
      w->PutString(*v.AsString());
      break;
    case ValueType::kTime:
      w->PutI64(v.AsTime()->ticks);
      break;
    case ValueType::kArray: {
      auto elems = *v.AsArray();
      w->PutU32(static_cast<uint32_t>(elems.size()));
      for (const Value& e : elems) Encode(e, w);
      break;
    }
    case ValueType::kRecord: {
      auto fields = *v.Fields();
      w->PutU32(static_cast<uint32_t>(fields.size()));
      for (const auto& [name, value] : fields) {
        w->PutString(name);
        Encode(value, w);
      }
      break;
    }
  }
}

Result<Value> ValueCodec::Decode(BinaryReader* r) {
  CACTIS_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  if (tag > static_cast<uint8_t>(ValueType::kRecord)) {
    return Status::IoError("bad value type tag in serialized data");
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      CACTIS_ASSIGN_OR_RETURN(bool b, r->GetBool());
      return Value::Bool(b);
    }
    case ValueType::kInt: {
      CACTIS_ASSIGN_OR_RETURN(int64_t i, r->GetI64());
      return Value::Int(i);
    }
    case ValueType::kReal: {
      CACTIS_ASSIGN_OR_RETURN(double d, r->GetDouble());
      return Value::Real(d);
    }
    case ValueType::kString: {
      CACTIS_ASSIGN_OR_RETURN(std::string s, r->GetString());
      return Value::String(std::move(s));
    }
    case ValueType::kTime: {
      CACTIS_ASSIGN_OR_RETURN(int64_t t, r->GetI64());
      return Value::Time(t);
    }
    case ValueType::kArray: {
      CACTIS_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
      if (n > r->remaining()) {
        return Status::IoError("array length exceeds serialized data");
      }
      std::vector<Value> elems;
      elems.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        CACTIS_ASSIGN_OR_RETURN(Value e, Decode(r));
        elems.push_back(std::move(e));
      }
      return Value::Array(std::move(elems));
    }
    case ValueType::kRecord: {
      CACTIS_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
      if (n > r->remaining()) {
        return Status::IoError("record field count exceeds serialized data");
      }
      std::vector<std::pair<std::string, Value>> fields;
      fields.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        CACTIS_ASSIGN_OR_RETURN(std::string name, r->GetString());
        CACTIS_ASSIGN_OR_RETURN(Value v, Decode(r));
        fields.emplace_back(std::move(name), std::move(v));
      }
      return Value::Record(std::move(fields));
    }
  }
  return Status::IoError("unreachable value tag");
}

}  // namespace cactis
