// The Cactis binary wire protocol (src/net).
//
// Every message between a client and the TCP server is one *frame*: a
// fixed 24-byte header followed by a length-prefixed payload, CRC-framed
// the same way the block layer frames disk blocks (storage/checksum.h),
// so a torn or corrupted frame is detected and surfaced as a *typed*
// error — never decoded as garbage and never silently dropped.
//
//   offset  size  field
//   ------  ----  ------------------------------------------------------
//        0     4  magic      0xCAC71DB0, little-endian
//        4     1  version    kWireVersion (currently 1)
//        5     1  type       FrameType
//        6     2  flags      reserved, must be 0
//        8     8  session    session token (SessionId.value; 0 = none)
//       16     4  length     payload byte count (<= kMaxPayloadBytes)
//       20     4  crc32      CRC-32 of header bytes [0,20) ++ payload
//       24     N  payload
//
// The protocol is strictly request/response per connection: the client
// sends one frame and blocks for the reply, so no correlation ids are
// needed. Frame types:
//
//   client -> server                server -> client
//   ----------------                ----------------
//   kHello     open a session       kHelloOk    session token in header
//   kRequest   statement batch      kResponse   encoded batch outcome
//   kSchema    load declarations    kSchemaOk   (empty)
//   kMetrics   metrics snapshot     kMetricsOk  JSON payload
//   kGoodbye   close the session    kGoodbyeOk  (empty)
//                                   kError      WireCode + message
//
// Error taxonomy on the wire. Every Status a statement can produce, every
// response-level outcome (rejected, no-session, degraded) and every
// framing failure maps to a *stable* numeric WireCode so clients can
// distinguish retryable conflicts from permanent failures without parsing
// message strings. The full table lives in DESIGN.md "Network transport";
// the invariant: codes never change meaning once shipped, new codes are
// only appended.

#ifndef CACTIS_NET_WIRE_H_
#define CACTIS_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "server/protocol.h"

namespace cactis::net {

inline constexpr uint32_t kWireMagic = 0xCAC71DB0u;
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 24;
/// Hard ceiling on a single frame's payload. Large enough for a full
/// metrics snapshot with thousands of per-session rows; small enough
/// that a malicious length field cannot balloon server memory.
inline constexpr uint32_t kMaxPayloadBytes = 8u << 20;  // 8 MiB

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kRequest = 3,
  kResponse = 4,
  kError = 5,
  kGoodbye = 6,
  kGoodbyeOk = 7,
  kSchema = 8,
  kSchemaOk = 9,
  kMetrics = 10,
  kMetricsOk = 11,
};

/// True for the type values a decoder accepts (dense range check).
bool IsKnownFrameType(uint8_t t);

/// Stable numeric error codes on the wire. Three bands:
///   1..99    statement-level Status codes (mirror StatusCode)
///   100..199 response-level outcomes (admission control, sessions)
///   200..299 framing / protocol violations (connection is poisoned)
enum class WireCode : uint16_t {
  kOk = 0,
  // --- statement-level (StatusCode mirror) ---
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kTypeMismatch = 4,
  kConstraintViolation = 5,
  kCycleDetected = 6,
  kTransactionAborted = 7,
  kConflict = 8,
  kIoError = 9,
  kUnavailable = 10,
  kCorruption = 11,
  kParseError = 12,
  kOutOfRange = 13,
  kInternal = 14,
  // --- response-level ---
  kRejected = 100,     // admission control refused (queue full / shutdown)
  kNoSession = 101,    // unknown, closed, or expired session
  kDegraded = 102,     // server is in degraded read-only mode
  // --- framing / protocol ---
  kBadMagic = 200,         // stream desynchronized or not a Cactis peer
  kVersionMismatch = 201,  // peer speaks a different protocol version
  kBadCrc = 202,           // checksum failure: torn or corrupted frame
  kFrameTooLarge = 203,    // length field exceeds kMaxPayloadBytes
  kBadFrame = 204,         // malformed frame (unknown type, bad flags,
                           // undecodable payload)
  kUnexpectedFrame = 205,  // valid frame, wrong state (e.g. kRequest
                           // before kHello)
  kSessionMismatch = 206,  // token does not match the connection's session
};

std::string_view WireCodeToString(WireCode c);

/// Statement-level Status -> wire code (kOk for OK).
WireCode WireCodeFromStatus(const Status& s);
/// Wire code -> Status (best-effort inverse; response-level and framing
/// codes map onto the nearest StatusCode so client code can reuse the
/// Status plumbing).
Status StatusFromWireCode(WireCode c, std::string message);

/// True when a client should retry (possibly after backoff): transaction
/// conflicts, admission-control rejections, transient unavailability.
/// Framing errors, parse errors, unknown names etc. are permanent.
bool IsRetryableWireCode(WireCode c);

/// ResponseStatus <-> stable wire byte.
uint8_t WireByteFromResponseStatus(server::ResponseStatus s);
std::optional<server::ResponseStatus> ResponseStatusFromWireByte(uint8_t b);

// --- Frame encoding -----------------------------------------------------------

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kHello;
  uint64_t session = 0;
  std::string payload;
};

/// Encodes a complete frame (header + CRC + payload).
std::string EncodeFrame(FrameType type, uint64_t session,
                        std::string_view payload);

/// Incremental frame decoder. Feed arbitrary byte chunks as they arrive
/// off a socket (partial reads, coalesced frames — any segmentation);
/// Next() yields complete frames in order. The first malformed byte
/// sequence poisons the reader: error() reports the typed WireCode and
/// Next() returns nothing further, because a desynchronized byte stream
/// cannot be trusted (the connection must be torn down).
class FrameReader {
 public:
  explicit FrameReader(uint32_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  /// Appends raw bytes off the wire. Cheap; no decoding happens here.
  void Feed(std::string_view bytes);

  /// Returns the next complete frame, or nullopt when more bytes are
  /// needed or the reader is poisoned (check error()).
  std::optional<Frame> Next();

  /// kOk while the stream is healthy; the poisoning WireCode otherwise.
  WireCode error() const { return error_; }
  const std::string& error_message() const { return error_message_; }
  bool poisoned() const { return error_ != WireCode::kOk; }

  /// Bytes currently buffered (tests; memory accounting).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  void Poison(WireCode code, std::string message);
  void Compact();

  uint32_t max_payload_;
  std::string buffer_;
  size_t consumed_ = 0;
  WireCode error_ = WireCode::kOk;
  std::string error_message_;
};

// --- Response payload encoding ------------------------------------------------

/// Client-side view of one statement's outcome.
struct WireStatementResult {
  WireCode code = WireCode::kOk;
  std::string text;  // payload when ok, error message otherwise
};

/// Client-side view of a batch response (mirror of server::Response).
struct WireResponse {
  server::ResponseStatus status = server::ResponseStatus::kOk;
  /// Batch outcome code: kOk, or the first failing statement's code, or
  /// the response-level code (kRejected / kNoSession / kDegraded).
  WireCode code = WireCode::kOk;
  std::string payload;  // per-statement payloads joined with '\n'
  uint64_t queue_wait_us = 0;
  uint64_t exec_us = 0;
  uint64_t session_ts = 0;
  uint32_t statements_run = 0;
  std::vector<WireStatementResult> statements;

  bool ok() const { return status == server::ResponseStatus::kOk; }
  bool aborted() const { return status == server::ResponseStatus::kAborted; }
  bool rejected() const { return status == server::ResponseStatus::kRejected; }
  /// True when the outcome is worth retrying (conflict abort, admission
  /// rejection, degraded-mode refusal).
  bool retryable() const { return IsRetryableWireCode(code); }
};

/// Decoded kRequest frame payload: the statement batch plus the
/// client-minted trace id (0 = server mints). The id rides the wire so a
/// remote `profile` response carries the same trace id the client
/// logged — the end-to-end correlation handle.
struct RequestPayload {
  uint64_t trace_id = 0;
  std::vector<std::string> statements;

  bool operator==(const RequestPayload& o) const {
    return trace_id == o.trace_id && statements == o.statements;
  }
};

/// Serializes a statement batch into a kRequest frame payload
/// (u64 trace id, then length-prefixed statements so they may contain
/// any bytes).
std::string EncodeRequestPayload(const RequestPayload& request);

/// Decodes a kRequest frame payload. Malformed bytes yield a Status
/// (mapped to kBadFrame on the wire).
Result<RequestPayload> DecodeRequestPayload(std::string_view payload);

/// Serializes a server::Response into a kResponse frame payload.
std::string EncodeResponsePayload(const server::Response& r);

/// Decodes a kResponse frame payload. Malformed bytes yield kBadFrame.
Result<WireResponse> DecodeResponsePayload(std::string_view payload);

/// Serializes / decodes a kError frame payload (code + message).
std::string EncodeErrorPayload(WireCode code, std::string_view message);
Result<std::pair<WireCode, std::string>> DecodeErrorPayload(
    std::string_view payload);

}  // namespace cactis::net

#endif  // CACTIS_NET_WIRE_H_
