// The wire protocol of the fragment transport: length-prefixed binary
// frames carrying control messages and serialized fragments.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic   "XFRM"
//        4     1  version (kFrameVersion; a frame with any other version is
//                          rejected as Unsupported)
//        5     1  type    (FrameType)
//        6     1  flags   (kFlagCompressedPayload: payload is the §4.1
//                          tag-compressed form instead of plain XML;
//                          kFlagRepeat: retransmission of a logged frame,
//                          sent by the repeat/NACK machinery)
//        7     1  reserved, must be 0
//        8     8  seq     (per-stream monotonic sequence number; fragment
//                          frames carry their 0-based publish position,
//                          heartbeats the count of frames published so far)
//       16     4  payload length
//       20     4  CRC32C over bytes [4, 20) + payload (Castagnoli,
//                 reflected, init/xorout 0xFFFFFFFF)
//       24     n  payload
//
// Every frame carries its checksum, in both directions and on disk (WAL
// segments, the WAL MANIFEST and the query registry hold the same
// frames). A HELLO's flags byte is 0: what a connection may exchange
// follows from state the server already has. A peer speaking another
// frame version is refused cleanly — the server answers such a first
// frame with BYE, and the subscriber counts a foreign-version frame
// before its handshake as a rejection.
//
// Conversation: the subscriber opens with HELLO (stream name, desired
// codec, known tag-structure hash or 0), the server answers with HELLO
// (accepted codec, its hash, and the Tag Structure XML so a cold client
// can decode without out-of-band schema exchange), the subscriber then
// sends REPLAY_FROM(last seen seq; -1 for everything) and receives the
// replayed history followed by live FRAGMENT frames. HEARTBEATs flow
// server→client on idle; BYE announces an orderly close in either
// direction, and at handshake it is the server's rejection. A
// REPEAT_REQUEST(filler id) flows client→server to NACK a missing
// filler: the server re-sends every logged frame of that filler with its
// original seq and kFlagRepeat set.
//
// The remote query channel. A client may send QUERY frames: XCQL text
// plus ExecMethod / HolePolicy / TickPolicy options and a resume
// position. The server registers the query in its incremental engine and
// answers with QUERY_STATUS (token echoed, assigned query id, or a
// rejection code + message; a server without a query channel rejects
// every QUERY with kQueryStatusRejected). From then on every engine
// tick's delta for that query arrives as a RESULT frame: frame.seq is a
// per-query result sequence number with the same contiguity /
// REPLAY_FROM-style resume / epoch-reset semantics as fragment seqs (the
// resume point travels inside the QUERY frame rather than in
// REPLAY_FROM, which stays scoped to the fragment log). UNQUERY
// deregisters; the server confirms with QUERY_STATUS.
//
// Per-tsid subscription filters. A client may send a SUBSCRIBE frame
// naming tag-structure ids; the server expands each id to its schema
// subtree closure and from then on delivers only FRAGMENT frames whose
// tsid falls inside the closure. Filtered-out seqs would look like gaps
// to the subscriber's contiguous-prefix tracking, so the server covers
// every skipped run with a SKIP_TO frame (seq = the highest seq of the
// run, payload = the first): the subscriber advances its contiguous
// prefix over the run without receiving the data. Carrying the run start
// keeps skips gap-checkable: a SKIP_TO whose start is not exactly
// last_seq+1 was reordered or preceded by loss, and the subscriber cuts
// the session and replays rather than silently jumping past deliverable
// frames. SKIP_TO is emitted before the next delivered frame and flushed
// on the heartbeat cadence, so a filtered subscriber's last_seq keeps
// tracking the stream head. SUBSCRIBE is
// per-session state: the subscriber re-sends it after every handshake,
// before REPLAY_FROM, so replays are filtered too. An empty SUBSCRIBE
// clears the filter. The server can also derive a filter itself: a QUERY
// carrying kQueryFlagAutoFilter has its relevance analyzed
// (lang::AnalyzeRelevance) and the touched subtree closure unioned into
// the connection's filter (an unbounded query disables filtering). NACK
// repair (REPEAT_REQUEST) bypasses the filter: an explicitly requested
// filler is always re-sent.
#ifndef XCQL_NET_FRAME_H_
#define XCQL_NET_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "frag/codec.h"
#include "frag/tag_structure.h"

namespace xcql::net {

inline constexpr uint32_t kFrameMagic = 0x4D52'4658;  // "XFRM" on the wire
inline constexpr uint8_t kFrameVersion = 2;
inline constexpr size_t kFrameHeaderSize = 24;
inline constexpr uint8_t kFlagCompressedPayload = 0x01;
inline constexpr uint8_t kFlagRepeat = 0x02;
// Sanity bound: a received frame larger than this is treated as stream
// corruption, and EncodeFrame refuses to produce one. Tied to the codec
// layer's publish-time limit so an accepted fragment always frames.
inline constexpr uint32_t kMaxFramePayload =
    static_cast<uint32_t>(frag::kMaxWirePayload);
static_assert(frag::kMaxWirePayload < (1ull << 32),
              "wire payload limit must fit the 32-bit frame length field");

enum class FrameType : uint8_t {
  kHello = 1,
  kFragment = 2,
  kHeartbeat = 3,
  kReplayFrom = 4,
  kBye = 5,
  kRepeatRequest = 6,  // NACK for a missing filler id
  kQuery = 7,          // register a continuous query (client→server)
  kUnquery = 8,        // deregister a query (client→server)
  kResult = 9,         // one tick's result delta (server→client)
  kQueryStatus = 10,   // QUERY/UNQUERY ack or rejection (server→client)
  kSkipTo = 11,        // filters: advance the contiguous prefix to seq
                       // without data (everything skipped was filtered
                       // out; payload = first seq of the skipped run)
  kSubscribe = 12,     // filters: set/replace this connection's tsid
                       // filter (client→server; empty = deliver everything)
  kExpired = 13,       // retention: a seq range / filler / result range
                       // was aged out on purpose (server→client)
};

const char* FrameTypeName(FrameType type);

/// \brief One decoded frame.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  uint8_t flags = 0;
  uint64_t seq = 0;
  std::string payload;
  /// False when the frame failed its checksum. The frame was framed well
  /// enough to skip (magic + length held up) but every other field is
  /// untrusted: type/flags are zeroed, the payload is empty, and seq holds
  /// the wire value for logging only.
  bool crc_ok = true;
};

/// \brief Serializes header + checksum + payload. Fails on a payload
/// larger than kMaxFramePayload — the decoder is guaranteed to reject such
/// a frame as stream corruption, so it must never reach the wire (or the
/// frame log).
Result<std::string> EncodeFrame(const Frame& frame);

/// \brief CRC32C (Castagnoli) of `data`; software table implementation.
uint32_t Crc32c(std::string_view data);

/// \brief Returns `frame_bytes` with kFlagRepeat set in the flags byte and
/// the checksum recomputed. Input must be a well-formed encoded frame (it
/// comes from the server's own log).
std::string WithRepeatFlag(std::string frame_bytes);

/// \brief Incremental decoder over a TCP byte stream: Feed() whatever
/// arrived, then pop complete frames with Next(). A frame whose checksum
/// does not match is returned with crc_ok=false rather than failing the
/// stream (the frame boundary itself held up, so the decoder can resync
/// on the next frame).
class FrameReader {
 public:
  void Feed(const char* data, size_t len);

  /// \brief The next complete frame, std::nullopt when more bytes are
  /// needed, or a Status on malformed input (bad magic, oversized payload,
  /// or — as Unsupported — a version other than kFrameVersion) — after
  /// which the stream is unusable.
  Result<std::optional<Frame>> Next();

  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
};

/// \brief HELLO payload, used in both directions (tag_structure_xml is
/// filled only server→client).
struct Hello {
  std::string stream_name;
  frag::WireCodec codec = frag::WireCodec::kPlainXml;
  uint64_t ts_hash = 0;  // 0 = unknown, ask the server
  std::string tag_structure_xml;
};

std::string EncodeHello(const Hello& hello);
Result<Hello> DecodeHello(std::string_view payload);

/// \brief REPLAY_FROM payload: the last sequence number the subscriber has
/// (-1 = replay everything).
std::string EncodeReplayFrom(int64_t last_seen_seq);
Result<int64_t> DecodeReplayFrom(std::string_view payload);

/// \brief REPEAT_REQUEST payload: the filler id being NACKed, plus the
/// validTimes (epoch seconds) of the versions the subscriber already
/// holds, so the server re-sends only the missing versions of a
/// partially-delivered filler instead of all of them.
///
/// Wire form: u64 filler id [, u32 count, count × u64 validTime]. The
/// bare 8-byte form — an older subscriber, or a fully-missing filler —
/// decodes with an empty list, which means "send every version".
struct RepeatRequest {
  int64_t filler_id = 0;
  std::vector<int64_t> have_valid_times;
};

std::string EncodeRepeatRequest(const RepeatRequest& request);
/// \brief The all-versions NACK (no held versions), wire-compatible with
/// pre-versioned peers.
std::string EncodeRepeatRequest(int64_t filler_id);
Result<RepeatRequest> DecodeRepeatRequest(std::string_view payload);

/// \brief SUBSCRIBE payload: the tag-structure ids this connection wants
/// (u32 count, count × u32 id). The server expands each id to its subtree
/// closure; an empty list clears the filter.
std::string EncodeSubscribe(const std::vector<int>& tsids);
Result<std::vector<int>> DecodeSubscribe(std::string_view payload);

/// \brief SKIP_TO payload: the first skipped sequence number of the run
/// (the header seq carries the last). The subscriber admits a skip only
/// when the run starts exactly at its contiguous prefix + 1 — anything
/// else is a reorder or a loss, handled like a data-frame gap.
std::string EncodeSkipTo(int64_t first_skipped_seq);
Result<int64_t> DecodeSkipTo(std::string_view payload);

/// QUERY option-flag bits. The two filler-lookup bits form a tri-state
/// (neither set = the engine default): kQueryFlagPaperFaithful pins the
/// paper's linear filler[@id=$fid] scan, kQueryFlagIndexedFillers pins the
/// indexed lookup. kQueryFlagNoDedup disables the engine's per-query
/// result dedup (every evaluation re-reports its full result).
inline constexpr uint8_t kQueryFlagPaperFaithful = 0x01;
inline constexpr uint8_t kQueryFlagIndexedFillers = 0x02;
inline constexpr uint8_t kQueryFlagNoDedup = 0x04;
/// Full diff mode: RESULT frames report items leaving the result in
/// `removed` (see ContinuousQueryOptions::track_removals).
inline constexpr uint8_t kQueryFlagTrackRemovals = 0x08;
/// Ask the server to derive a per-tsid filter from this query: its
/// relevance is analyzed and the touched subtree closure is unioned into
/// the connection's subscription filter. Transport-level — the server
/// strips the bit before engine registration, so two otherwise-identical
/// queries still share one engine registration.
inline constexpr uint8_t kQueryFlagAutoFilter = 0x10;

/// \brief QUERY payload: everything the server needs to register the
/// query in its engine, plus a resume position for reconnects. The enum
/// fields travel as raw bytes so the codec stays free of engine headers;
/// the query channel validates and converts them on admission.
struct RemoteQuerySpec {
  /// Client-chosen correlation token, echoed verbatim in QUERY_STATUS so
  /// the subscriber can match acks to in-flight registrations.
  uint32_t token = 0;
  uint8_t method = 0;       // lang::ExecMethod
  uint8_t hole_policy = 0;  // xq::HolePolicy
  uint8_t tick_policy = 0;  // stream::TickPolicy
  uint8_t flags = 0;        // kQueryFlag* bits
  /// Last result seq the client already holds for this query (-1 = send
  /// the result stream from the beginning).
  int64_t last_result_seq = -1;
  std::string text;  // XCQL source
};

std::string EncodeQuery(const RemoteQuerySpec& spec);
Result<RemoteQuerySpec> DecodeQuery(std::string_view payload);

/// \brief UNQUERY payload: the server-assigned query id to deregister.
std::string EncodeUnquery(uint64_t query_id);
Result<uint64_t> DecodeUnquery(std::string_view payload);

/// \brief QUERY_STATUS payload: the server's answer to QUERY or UNQUERY.
/// code 0 = accepted (query_id assigned); nonzero = rejected (query_id 0,
/// message says why — admission limit, parse error, bad option byte…).
struct QueryStatus {
  uint32_t token = 0;
  uint64_t query_id = 0;
  uint32_t code = 0;
  std::string message;
};

/// QUERY_STATUS codes (u32 on the wire; room for per-layer growth).
inline constexpr uint32_t kQueryStatusOk = 0;
inline constexpr uint32_t kQueryStatusRejected = 1;   // admission limit
inline constexpr uint32_t kQueryStatusInvalid = 2;    // bad spec/XCQL
inline constexpr uint32_t kQueryStatusUnknownId = 3;  // UNQUERY miss

std::string EncodeQueryStatus(const QueryStatus& status);
Result<QueryStatus> DecodeQueryStatus(std::string_view payload);

/// \brief RESULT payload: one engine tick's delta for one query. `added`
/// and `removed` carry serialized result items (the engine's canonical
/// rendering); frame.seq carries the per-query result sequence number.
struct ResultDelta {
  uint64_t query_id = 0;
  int64_t eval_time_s = 0;  // clock position of the tick (epoch seconds)
  std::vector<std::string> added;
  std::vector<std::string> removed;
};

Result<std::string> EncodeResultDelta(const ResultDelta& delta);
Result<ResultDelta> DecodeResultDelta(std::string_view payload);

/// \brief EXPIRED payload (retention, docs/RETENTION.md). Three kinds:
///  - kRange: frame-log seqs [first_seq, header seq] were trimmed below
///    the retention floor (a WAL checkpoint covers them on disk). Emitted
///    at the head of a replay that starts below the floor, and
///    gap-checked exactly like SKIP_TO: the run must continue the
///    subscriber's contiguous prefix or the session is cut.
///  - kFiller: answer to a REPEAT_REQUEST whose filler was compacted —
///    the subscriber marks the repair expired (not lost) and stops
///    NACKing it.
///  - kResultRange: result-log seqs [first_seq, header seq] of query_id
///    were trimmed; the subscriber advances that query's contiguous
///    result seq over the run without data.
///
/// Wire form: u8 kind, then kRange: u64 first_seq; kFiller: u64 filler
/// id; kResultRange: u64 query_id, u64 first_seq.
struct Expired {
  enum Kind : uint8_t { kRange = 0, kFiller = 1, kResultRange = 2 };
  uint8_t kind = kRange;
  int64_t first_seq = 0;   // kRange / kResultRange
  int64_t filler_id = 0;   // kFiller
  uint64_t query_id = 0;   // kResultRange
};

std::string EncodeExpired(const Expired& expired);
Result<Expired> DecodeExpired(std::string_view payload);

/// \brief FNV-1a over the Tag Structure's canonical XML form; both ends
/// compare hashes at HELLO to verify they hold the same schema.
uint64_t TagStructureHash(const frag::TagStructure& ts);
uint64_t TagStructureHash(std::string_view ts_xml);

}  // namespace xcql::net

#endif  // XCQL_NET_FRAME_H_
