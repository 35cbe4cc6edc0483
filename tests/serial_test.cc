#include "common/serial.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cactis {
namespace {

TEST(SerialTest, PrimitiveRoundTrip) {
  BinaryWriter w;
  w.PutU8(7);
  w.PutU32(123456);
  w.PutU64(1ull << 40);
  w.PutI64(-99);
  w.PutDouble(3.25);
  w.PutBool(true);
  w.PutString("hello");

  BinaryReader r(w.data());
  EXPECT_EQ(*r.GetU8(), 7);
  EXPECT_EQ(*r.GetU32(), 123456u);
  EXPECT_EQ(*r.GetU64(), 1ull << 40);
  EXPECT_EQ(*r.GetI64(), -99);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 3.25);
  EXPECT_EQ(*r.GetBool(), true);
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerialTest, TruncationFailsLoudly) {
  BinaryWriter w;
  w.PutU64(1);
  BinaryReader r(std::string_view(w.data()).substr(0, 3));
  auto v = r.GetU64();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIoError);
}

TEST(SerialTest, TruncatedStringFails) {
  BinaryWriter w;
  w.PutU32(100);  // claims 100 bytes follow
  BinaryReader r(w.data());
  EXPECT_FALSE(r.GetString().ok());
}

TEST(SerialTest, EmptyStringRoundTrip) {
  BinaryWriter w;
  w.PutString("");
  BinaryReader r(w.data());
  EXPECT_EQ(*r.GetString(), "");
}

Value RandomValue(Rng* rng, int depth) {
  switch (depth > 0 ? rng->Uniform(8) : rng->Uniform(6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      return Value::Int(static_cast<int64_t>(rng->Next()));
    case 3:
      return Value::Real(rng->UniformReal() * 1000 - 500);
    case 4: {
      std::string s;
      for (uint64_t i = 0, n = rng->Uniform(12); i < n; ++i) {
        s.push_back(static_cast<char>('a' + rng->Uniform(26)));
      }
      return Value::String(std::move(s));
    }
    case 5:
      return Value::Time(static_cast<int64_t>(rng->Uniform(1u << 30)));
    case 6: {
      std::vector<Value> elems;
      for (uint64_t i = 0, n = rng->Uniform(4); i < n; ++i) {
        elems.push_back(RandomValue(rng, depth - 1));
      }
      return Value::Array(std::move(elems));
    }
    default: {
      std::vector<std::pair<std::string, Value>> fields;
      for (uint64_t i = 0, n = rng->Uniform(3); i < n; ++i) {
        std::string name = "f";
        name += std::to_string(i);
        fields.emplace_back(std::move(name), RandomValue(rng, depth - 1));
      }
      return Value::Record(std::move(fields));
    }
  }
}

/// Property: every value round-trips through the codec, and the declared
/// SerializedSize matches the actual encoded length.
TEST(SerialTest, ValueCodecRoundTripProperty) {
  Rng rng(20260706);
  for (int i = 0; i < 500; ++i) {
    Value v = RandomValue(&rng, 3);
    BinaryWriter w;
    ValueCodec::Encode(v, &w);
    EXPECT_EQ(w.size(), v.SerializedSize()) << v.ToString();
    BinaryReader r(w.data());
    auto back = ValueCodec::Decode(&r);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, v) << v.ToString();
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SerialTest, DecodeRejectsBadTag) {
  std::string bytes(1, static_cast<char>(200));
  BinaryReader r(bytes);
  EXPECT_FALSE(ValueCodec::Decode(&r).ok());
}

TEST(SerialTest, DecodeRejectsArrayLengthBeyondData) {
  // A corrupt element count must fail before it sizes an allocation.
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(ValueType::kArray));
  w.PutU32(0xFFFFFFFFu);
  BinaryReader r(w.data());
  auto v = ValueCodec::Decode(&r);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIoError);
}

TEST(SerialTest, VarintBoundariesRoundTrip) {
  const std::pair<uint64_t, size_t> cases[] = {
      {0, 1},           {127, 1},
      {128, 2},         {16383, 2},
      {16384, 3},       {(1ull << 32) - 1, 5},
      {1ull << 32, 5},  {(1ull << 63) - 1, 9},
      {1ull << 63, 10}, {UINT64_MAX, 10},
  };
  for (const auto& [value, bytes] : cases) {
    BinaryWriter w;
    w.PutVarint(value);
    EXPECT_EQ(w.size(), bytes) << value;
    BinaryReader r(w.data());
    auto back = r.GetVarint();
    ASSERT_TRUE(back.ok()) << value << ": " << back.status();
    EXPECT_EQ(*back, value);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SerialTest, ZigzagRoundTrip) {
  const std::pair<int64_t, size_t> cases[] = {
      {0, 1},  {-1, 1},         {1, 1},          {-64, 1},
      {64, 2}, {INT64_MIN, 10}, {INT64_MAX, 10},
  };
  for (const auto& [value, bytes] : cases) {
    BinaryWriter w;
    w.PutZigzag(value);
    EXPECT_EQ(w.size(), bytes) << value;
    BinaryReader r(w.data());
    auto back = r.GetZigzag();
    ASSERT_TRUE(back.ok()) << value << ": " << back.status();
    EXPECT_EQ(*back, value);
  }
}

TEST(SerialTest, TruncatedVarintIsIoError) {
  for (std::string bytes : {std::string(), std::string("\x80"),
                            std::string("\xff\xff\xff")}) {
    BinaryReader r(bytes);
    auto v = r.GetVarint();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kIoError);
  }
}

TEST(SerialTest, OverlongVarintIsIoError) {
  // Eleven bytes: continuation past the tenth.
  std::string eleven(10, '\x80');
  eleven.push_back('\x00');
  // Ten bytes whose last carries bits beyond 64.
  std::string overflow(9, '\xff');
  overflow.push_back('\x02');
  for (const std::string& bytes : {eleven, overflow}) {
    BinaryReader r(bytes);
    auto v = r.GetVarint();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kIoError);
  }
}

TEST(SerialTest, CountBeyondRemainingBytesIsIoError) {
  BinaryWriter w;
  w.PutVarint(3);
  w.PutU8(1);
  w.PutU8(2);
  BinaryReader r(w.data());
  auto n = r.GetCount();
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace cactis
