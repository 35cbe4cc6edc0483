#include "net/wire.h"

#include <cstdio>
#include <cstring>

#include "storage/checksum.h"

namespace cactis::net {

namespace {

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint16_t GetU16(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8;
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

/// Bounds-checked cursor over a payload being decoded. Every read checks
/// remaining length so malformed frames surface as typed errors, never
/// out-of-bounds reads (the fuzzers hammer exactly this).
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (pos_ + 2 > data_.size()) return false;
    *v = GetU16(data_.data() + pos_);
    pos_ += 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = GetU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = GetU64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }
  bool ReadBytes(uint32_t len, std::string* out) {
    if (len > data_.size() || pos_ > data_.size() - len) return false;
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Status BadPayload(const char* what) {
  return Status(StatusCode::kInvalidArgument,
                std::string("malformed frame payload: ") + what);
}

}  // namespace

bool IsKnownFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kMetricsOk);
}

std::string_view WireCodeToString(WireCode c) {
  switch (c) {
    case WireCode::kOk:
      return "ok";
    case WireCode::kInvalidArgument:
      return "invalid-argument";
    case WireCode::kNotFound:
      return "not-found";
    case WireCode::kAlreadyExists:
      return "already-exists";
    case WireCode::kTypeMismatch:
      return "type-mismatch";
    case WireCode::kConstraintViolation:
      return "constraint-violation";
    case WireCode::kCycleDetected:
      return "cycle-detected";
    case WireCode::kTransactionAborted:
      return "transaction-aborted";
    case WireCode::kConflict:
      return "conflict";
    case WireCode::kIoError:
      return "io-error";
    case WireCode::kUnavailable:
      return "unavailable";
    case WireCode::kCorruption:
      return "corruption";
    case WireCode::kParseError:
      return "parse-error";
    case WireCode::kOutOfRange:
      return "out-of-range";
    case WireCode::kInternal:
      return "internal";
    case WireCode::kRejected:
      return "rejected";
    case WireCode::kNoSession:
      return "no-session";
    case WireCode::kDegraded:
      return "degraded";
    case WireCode::kBadMagic:
      return "bad-magic";
    case WireCode::kVersionMismatch:
      return "version-mismatch";
    case WireCode::kBadCrc:
      return "bad-crc";
    case WireCode::kFrameTooLarge:
      return "frame-too-large";
    case WireCode::kBadFrame:
      return "bad-frame";
    case WireCode::kUnexpectedFrame:
      return "unexpected-frame";
    case WireCode::kSessionMismatch:
      return "session-mismatch";
  }
  return "unknown";
}

WireCode WireCodeFromStatus(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk:
      return WireCode::kOk;
    case StatusCode::kInvalidArgument:
      return WireCode::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireCode::kNotFound;
    case StatusCode::kAlreadyExists:
      return WireCode::kAlreadyExists;
    case StatusCode::kTypeMismatch:
      return WireCode::kTypeMismatch;
    case StatusCode::kConstraintViolation:
      return WireCode::kConstraintViolation;
    case StatusCode::kCycleDetected:
      return WireCode::kCycleDetected;
    case StatusCode::kTransactionAborted:
      return WireCode::kTransactionAborted;
    case StatusCode::kConflict:
      return WireCode::kConflict;
    case StatusCode::kIoError:
      return WireCode::kIoError;
    case StatusCode::kUnavailable:
      return WireCode::kUnavailable;
    case StatusCode::kCorruption:
      return WireCode::kCorruption;
    case StatusCode::kParseError:
      return WireCode::kParseError;
    case StatusCode::kOutOfRange:
      return WireCode::kOutOfRange;
    case StatusCode::kInternal:
      return WireCode::kInternal;
  }
  return WireCode::kInternal;
}

Status StatusFromWireCode(WireCode c, std::string message) {
  switch (c) {
    case WireCode::kOk:
      return Status::OK();
    case WireCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case WireCode::kNotFound:
      return Status::NotFound(std::move(message));
    case WireCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case WireCode::kTypeMismatch:
      return Status::TypeMismatch(std::move(message));
    case WireCode::kConstraintViolation:
      return Status::ConstraintViolation(std::move(message));
    case WireCode::kCycleDetected:
      return Status::CycleDetected(std::move(message));
    case WireCode::kTransactionAborted:
      return Status::TransactionAborted(std::move(message));
    case WireCode::kConflict:
      return Status::Conflict(std::move(message));
    case WireCode::kIoError:
      return Status::IoError(std::move(message));
    case WireCode::kUnavailable:
    case WireCode::kRejected:
    case WireCode::kDegraded:
      return Status::Unavailable(std::move(message));
    case WireCode::kCorruption:
    case WireCode::kBadCrc:
      return Status::Corruption(std::move(message));
    case WireCode::kParseError:
      return Status::ParseError(std::move(message));
    case WireCode::kOutOfRange:
    case WireCode::kFrameTooLarge:
      return Status::OutOfRange(std::move(message));
    case WireCode::kInternal:
      return Status::Internal(std::move(message));
    case WireCode::kNoSession:
      return Status::NotFound(std::move(message));
    case WireCode::kBadMagic:
    case WireCode::kVersionMismatch:
    case WireCode::kBadFrame:
    case WireCode::kUnexpectedFrame:
    case WireCode::kSessionMismatch:
      return Status::InvalidArgument(std::move(message));
  }
  return Status::Internal(std::move(message));
}

bool IsRetryableWireCode(WireCode c) {
  switch (c) {
    case WireCode::kTransactionAborted:
    case WireCode::kConflict:
    case WireCode::kUnavailable:
    case WireCode::kRejected:
    case WireCode::kDegraded:
      return true;
    default:
      return false;
  }
}

uint8_t WireByteFromResponseStatus(server::ResponseStatus s) {
  switch (s) {
    case server::ResponseStatus::kOk:
      return 0;
    case server::ResponseStatus::kError:
      return 1;
    case server::ResponseStatus::kAborted:
      return 2;
    case server::ResponseStatus::kRejected:
      return 3;
    case server::ResponseStatus::kNoSession:
      return 4;
    case server::ResponseStatus::kUnavailable:
      return 5;
  }
  return 1;
}

std::optional<server::ResponseStatus> ResponseStatusFromWireByte(uint8_t b) {
  switch (b) {
    case 0:
      return server::ResponseStatus::kOk;
    case 1:
      return server::ResponseStatus::kError;
    case 2:
      return server::ResponseStatus::kAborted;
    case 3:
      return server::ResponseStatus::kRejected;
    case 4:
      return server::ResponseStatus::kNoSession;
    case 5:
      return server::ResponseStatus::kUnavailable;
    default:
      return std::nullopt;
  }
}

// --- Frame encoding -----------------------------------------------------------

std::string EncodeFrame(FrameType type, uint64_t session,
                        std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, kWireMagic);
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  PutU16(&out, 0);  // flags
  PutU64(&out, session);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  // CRC over the 20 header bytes written so far plus the payload — the
  // same integrity discipline as the block layer, covering the header
  // fields (a flipped length or session byte fails the check too).
  std::string crc_input(out);
  crc_input.append(payload);
  PutU32(&out, storage::Crc32(crc_input));
  out.append(payload);
  return out;
}

void FrameReader::Feed(std::string_view bytes) {
  if (poisoned()) return;  // drained by teardown; don't buffer garbage
  buffer_.append(bytes);
}

void FrameReader::Poison(WireCode code, std::string message) {
  error_ = code;
  error_message_ = std::move(message);
  buffer_.clear();
  consumed_ = 0;
}

void FrameReader::Compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a
  // long-lived connection doesn't grow its buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

std::optional<Frame> FrameReader::Next() {
  if (poisoned()) return std::nullopt;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const char* h = buffer_.data() + consumed_;

  const uint32_t magic = GetU32(h);
  if (magic != kWireMagic) {
    Poison(WireCode::kBadMagic, "bad magic 0x" + [&] {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%08x", magic);
      return std::string(buf);
    }());
    return std::nullopt;
  }
  const uint8_t version = static_cast<uint8_t>(h[4]);
  if (version != kWireVersion) {
    Poison(WireCode::kVersionMismatch,
           "protocol version " + std::to_string(version) + " (expected " +
               std::to_string(kWireVersion) + ")");
    return std::nullopt;
  }
  const uint8_t type = static_cast<uint8_t>(h[5]);
  if (!IsKnownFrameType(type)) {
    Poison(WireCode::kBadFrame,
           "unknown frame type " + std::to_string(type));
    return std::nullopt;
  }
  const uint16_t flags = GetU16(h + 6);
  if (flags != 0) {
    Poison(WireCode::kBadFrame,
           "nonzero reserved flags " + std::to_string(flags));
    return std::nullopt;
  }
  const uint64_t session = GetU64(h + 8);
  const uint32_t length = GetU32(h + 16);
  if (length > max_payload_) {
    Poison(WireCode::kFrameTooLarge,
           "payload of " + std::to_string(length) + " bytes exceeds limit " +
               std::to_string(max_payload_));
    return std::nullopt;
  }
  if (avail < kFrameHeaderBytes + length) return std::nullopt;  // need more

  const uint32_t wire_crc = GetU32(h + 20);
  std::string crc_input(h, 20);
  crc_input.append(h + kFrameHeaderBytes, length);
  if (storage::Crc32(crc_input) != wire_crc) {
    Poison(WireCode::kBadCrc, "frame checksum mismatch");
    return std::nullopt;
  }

  Frame f;
  f.type = static_cast<FrameType>(type);
  f.session = session;
  f.payload.assign(h + kFrameHeaderBytes, length);
  consumed_ += kFrameHeaderBytes + length;
  Compact();
  return f;
}

// --- Response payload encoding ------------------------------------------------

std::string EncodeResponsePayload(const server::Response& r) {
  // Batch outcome code: response-level outcomes win; otherwise the first
  // failing statement's code; kOk when everything succeeded.
  WireCode code = WireCode::kOk;
  switch (r.status) {
    case server::ResponseStatus::kRejected:
      code = WireCode::kRejected;
      break;
    case server::ResponseStatus::kNoSession:
      code = WireCode::kNoSession;
      break;
    case server::ResponseStatus::kUnavailable:
      code = WireCode::kDegraded;
      break;
    default:
      for (const auto& st : r.statements) {
        if (!st.status.ok()) {
          code = WireCodeFromStatus(st.status);
          break;
        }
      }
      break;
  }

  std::string out;
  out.push_back(static_cast<char>(WireByteFromResponseStatus(r.status)));
  PutU16(&out, static_cast<uint16_t>(code));
  PutU32(&out, r.metrics.statements_run);
  PutU64(&out, r.metrics.queue_wait_us);
  PutU64(&out, r.metrics.exec_us);
  PutU64(&out, r.metrics.session_ts);
  PutU32(&out, static_cast<uint32_t>(r.statements.size()));
  for (const auto& st : r.statements) {
    PutU16(&out, static_cast<uint16_t>(WireCodeFromStatus(st.status)));
    const std::string& text =
        st.status.ok() ? st.payload : st.status.ToString();
    PutU32(&out, static_cast<uint32_t>(text.size()));
    out.append(text);
  }
  PutU32(&out, static_cast<uint32_t>(r.payload.size()));
  out.append(r.payload);
  return out;
}

std::string EncodeRequestPayload(const RequestPayload& request) {
  std::string out;
  PutU64(&out, request.trace_id);
  PutU32(&out, static_cast<uint32_t>(request.statements.size()));
  for (const auto& s : request.statements) {
    PutU32(&out, static_cast<uint32_t>(s.size()));
    out.append(s);
  }
  return out;
}

Result<RequestPayload> DecodeRequestPayload(std::string_view payload) {
  Cursor c(payload);
  RequestPayload request;
  uint32_t n = 0;
  if (!c.ReadU64(&request.trace_id)) return BadPayload("truncated trace id");
  if (!c.ReadU32(&n)) return BadPayload("truncated statement count");
  // Each statement entry is at least 4 bytes; bound n before reserving.
  if (n > payload.size() / 4 + 1) return BadPayload("statement count");
  request.statements.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t len = 0;
    std::string s;
    if (!c.ReadU32(&len) || !c.ReadBytes(len, &s)) {
      return BadPayload("truncated statement");
    }
    request.statements.push_back(std::move(s));
  }
  if (!c.AtEnd()) return BadPayload("trailing bytes");
  return request;
}

Result<WireResponse> DecodeResponsePayload(std::string_view payload) {
  Cursor c(payload);
  WireResponse r;
  uint8_t status_byte = 0;
  uint16_t code = 0;
  if (!c.ReadU8(&status_byte) || !c.ReadU16(&code) ||
      !c.ReadU32(&r.statements_run) || !c.ReadU64(&r.queue_wait_us) ||
      !c.ReadU64(&r.exec_us) || !c.ReadU64(&r.session_ts)) {
    return BadPayload("truncated response header");
  }
  auto status = ResponseStatusFromWireByte(status_byte);
  if (!status.has_value()) return BadPayload("unknown response status");
  r.status = *status;
  r.code = static_cast<WireCode>(code);
  uint32_t n = 0;
  if (!c.ReadU32(&n)) return BadPayload("truncated statement count");
  // Each statement entry is at least 6 bytes; bound n before reserving.
  if (n > payload.size() / 6 + 1) return BadPayload("statement count");
  r.statements.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WireStatementResult st;
    uint16_t st_code = 0;
    uint32_t len = 0;
    if (!c.ReadU16(&st_code) || !c.ReadU32(&len) ||
        !c.ReadBytes(len, &st.text)) {
      return BadPayload("truncated statement result");
    }
    st.code = static_cast<WireCode>(st_code);
    r.statements.push_back(std::move(st));
  }
  uint32_t plen = 0;
  if (!c.ReadU32(&plen) || !c.ReadBytes(plen, &r.payload)) {
    return BadPayload("truncated joined payload");
  }
  if (!c.AtEnd()) return BadPayload("trailing bytes");
  return r;
}

std::string EncodeErrorPayload(WireCode code, std::string_view message) {
  std::string out;
  PutU16(&out, static_cast<uint16_t>(code));
  PutU32(&out, static_cast<uint32_t>(message.size()));
  out.append(message);
  return out;
}

Result<std::pair<WireCode, std::string>> DecodeErrorPayload(
    std::string_view payload) {
  Cursor c(payload);
  uint16_t code = 0;
  uint32_t len = 0;
  std::string message;
  if (!c.ReadU16(&code) || !c.ReadU32(&len) || !c.ReadBytes(len, &message) ||
      !c.AtEnd()) {
    return BadPayload("truncated error frame");
  }
  return std::make_pair(static_cast<WireCode>(code), std::move(message));
}

}  // namespace cactis::net
