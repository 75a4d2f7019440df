#include "net/frame.h"

#include <array>
#include <cstring>

#include "common/string_util.h"

namespace xcql::net {

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
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(u[0] | (u[1] << 8));
}

uint32_t GetU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  for (int i = 7; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

bool ValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kExpired);
}

// CRC32C (Castagnoli, reflected polynomial 0x82F63B78), byte-at-a-time
// table. Software only: the transport is loopback/LAN scale and the
// payloads dominate hashing cost anyway.
const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// Unconditioned state update (caller applies the ~ at both ends).
uint32_t Crc32cRaw(uint32_t crc, const char* data, size_t len) {
  const auto& table = Crc32cTable();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

// Offset of the checksum field: it follows the fields it covers.
constexpr size_t kCrcOffset = 20;

// The frame checksum: CRC32C over header bytes [4, 20) (version through
// length — magic is the resync marker and excluded) followed by the
// payload.
uint32_t FrameCrc(const char* header, const char* payload,
                  size_t payload_len) {
  uint32_t crc = 0xFFFFFFFFu;
  crc = Crc32cRaw(crc, header + 4, kCrcOffset - 4);
  crc = Crc32cRaw(crc, payload, payload_len);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

uint32_t Crc32c(std::string_view data) {
  return Crc32cRaw(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kFragment:
      return "FRAGMENT";
    case FrameType::kHeartbeat:
      return "HEARTBEAT";
    case FrameType::kReplayFrom:
      return "REPLAY_FROM";
    case FrameType::kBye:
      return "BYE";
    case FrameType::kRepeatRequest:
      return "REPEAT_REQUEST";
    case FrameType::kQuery:
      return "QUERY";
    case FrameType::kUnquery:
      return "UNQUERY";
    case FrameType::kResult:
      return "RESULT";
    case FrameType::kQueryStatus:
      return "QUERY_STATUS";
    case FrameType::kSkipTo:
      return "SKIP_TO";
    case FrameType::kSubscribe:
      return "SUBSCRIBE";
    case FrameType::kExpired:
      return "EXPIRED";
  }
  return "?";
}

Result<std::string> EncodeFrame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(StringPrintf(
        "frame payload of %llu bytes exceeds the %u-byte limit",
        static_cast<unsigned long long>(frame.payload.size()),
        kMaxFramePayload));
  }
  std::string out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  PutU32(&out, kFrameMagic);
  out.push_back(static_cast<char>(kFrameVersion));
  out.push_back(static_cast<char>(frame.type));
  out.push_back(static_cast<char>(frame.flags));
  out.push_back(0);  // reserved
  PutU64(&out, frame.seq);
  PutU32(&out, static_cast<uint32_t>(frame.payload.size()));
  PutU32(&out,
         FrameCrc(out.data(), frame.payload.data(), frame.payload.size()));
  out += frame.payload;
  return out;
}

std::string WithRepeatFlag(std::string frame_bytes) {
  if (frame_bytes.size() < kFrameHeaderSize) return frame_bytes;
  frame_bytes[6] = static_cast<char>(static_cast<uint8_t>(frame_bytes[6]) |
                                     kFlagRepeat);
  uint32_t crc = FrameCrc(frame_bytes.data(),
                          frame_bytes.data() + kFrameHeaderSize,
                          frame_bytes.size() - kFrameHeaderSize);
  for (int i = 0; i < 4; ++i) {
    frame_bytes[kCrcOffset + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  return frame_bytes;
}

void FrameReader::Feed(const char* data, size_t len) {
  // Compact before growing: the buffer never holds more than one partial
  // frame beyond what Next() has consumed.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64u << 10)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, len);
}

Result<std::optional<Frame>> FrameReader::Next() {
  if (buffered() < kFrameHeaderSize) return std::optional<Frame>();
  const char* h = buf_.data() + pos_;
  if (GetU32(h) != kFrameMagic) {
    return Status::ParseError("bad frame magic (stream out of sync)");
  }
  uint8_t version = static_cast<uint8_t>(h[4]);
  if (version != kFrameVersion) {
    return Status::Unsupported(StringPrintf(
        "frame version %u (expected %u)", version, kFrameVersion));
  }
  uint32_t len = GetU32(h + 16);
  if (len > kMaxFramePayload) {
    return Status::ParseError(
        StringPrintf("frame payload of %u bytes exceeds the %u limit", len,
                     kMaxFramePayload));
  }
  if (buffered() < kFrameHeaderSize + len) return std::optional<Frame>();
  if (GetU32(h + kCrcOffset) != FrameCrc(h, h + kFrameHeaderSize, len)) {
    // The framing held up (magic + plausible length) but the contents
    // did not: skip the frame and report it as corrupt instead of
    // killing the stream — the caller decides how to recover.
    Frame frame;
    frame.crc_ok = false;
    frame.type = FrameType::kHeartbeat;  // placeholder, untrusted
    frame.flags = 0;
    frame.seq = GetU64(h + 8);  // untrusted, for logging only
    pos_ += kFrameHeaderSize + len;
    return std::optional<Frame>(std::move(frame));
  }
  uint8_t type = static_cast<uint8_t>(h[5]);
  if (!ValidFrameType(type)) {
    return Status::ParseError(StringPrintf("unknown frame type %u", type));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.flags = static_cast<uint8_t>(h[6]);
  frame.seq = GetU64(h + 8);
  frame.payload.assign(h + kFrameHeaderSize, len);
  pos_ += kFrameHeaderSize + len;
  return std::optional<Frame>(std::move(frame));
}

std::string EncodeHello(const Hello& hello) {
  std::string out;
  out.push_back(static_cast<char>(hello.codec));
  PutU64(&out, hello.ts_hash);
  PutU16(&out, static_cast<uint16_t>(hello.stream_name.size()));
  out += hello.stream_name;
  out += hello.tag_structure_xml;
  return out;
}

Result<Hello> DecodeHello(std::string_view payload) {
  if (payload.size() < 11) {
    return Status::ParseError("HELLO payload truncated");
  }
  Hello hello;
  uint8_t codec = static_cast<uint8_t>(payload[0]);
  if (codec > static_cast<uint8_t>(frag::WireCodec::kTagCompressed)) {
    return Status::Unsupported(StringPrintf("unknown wire codec %u", codec));
  }
  hello.codec = static_cast<frag::WireCodec>(codec);
  hello.ts_hash = GetU64(payload.data() + 1);
  uint16_t name_len = GetU16(payload.data() + 9);
  if (payload.size() < 11u + name_len) {
    return Status::ParseError("HELLO stream name truncated");
  }
  hello.stream_name.assign(payload.data() + 11, name_len);
  hello.tag_structure_xml.assign(payload.begin() + 11 + name_len,
                                 payload.end());
  return hello;
}

std::string EncodeReplayFrom(int64_t last_seen_seq) {
  std::string out;
  PutU64(&out, static_cast<uint64_t>(last_seen_seq));
  return out;
}

Result<int64_t> DecodeReplayFrom(std::string_view payload) {
  if (payload.size() != 8) {
    return Status::ParseError("REPLAY_FROM payload must be 8 bytes");
  }
  return static_cast<int64_t>(GetU64(payload.data()));
}

std::string EncodeRepeatRequest(const RepeatRequest& request) {
  std::string out;
  PutU64(&out, static_cast<uint64_t>(request.filler_id));
  if (!request.have_valid_times.empty()) {
    PutU32(&out,
           static_cast<uint32_t>(request.have_valid_times.size()));
    for (int64_t t : request.have_valid_times) {
      PutU64(&out, static_cast<uint64_t>(t));
    }
  }
  return out;
}

std::string EncodeRepeatRequest(int64_t filler_id) {
  RepeatRequest request;
  request.filler_id = filler_id;
  return EncodeRepeatRequest(request);
}

Result<RepeatRequest> DecodeRepeatRequest(std::string_view payload) {
  RepeatRequest request;
  if (payload.size() < 8) {
    return Status::ParseError("REPEAT_REQUEST payload must be >= 8 bytes");
  }
  request.filler_id = static_cast<int64_t>(GetU64(payload.data()));
  if (payload.size() == 8) return request;  // pre-versioned form
  if (payload.size() < 12) {
    return Status::ParseError("REPEAT_REQUEST version count truncated");
  }
  uint32_t count = GetU32(payload.data() + 8);
  if (payload.size() != 12u + 8ull * count) {
    return Status::ParseError(StringPrintf(
        "REPEAT_REQUEST promises %u validTimes but carries %zu bytes",
        count, payload.size()));
  }
  request.have_valid_times.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    request.have_valid_times.push_back(
        static_cast<int64_t>(GetU64(payload.data() + 12 + 8ull * i)));
  }
  return request;
}

std::string EncodeSubscribe(const std::vector<int>& tsids) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(tsids.size()));
  for (int id : tsids) PutU32(&out, static_cast<uint32_t>(id));
  return out;
}

Result<std::vector<int>> DecodeSubscribe(std::string_view payload) {
  if (payload.size() < 4) {
    return Status::ParseError("SUBSCRIBE payload truncated");
  }
  uint32_t count = GetU32(payload.data());
  if (payload.size() != 4u + 4ull * count) {
    return Status::ParseError(StringPrintf(
        "SUBSCRIBE promises %u tsids but carries %zu bytes", count,
        payload.size()));
  }
  std::vector<int> tsids;
  tsids.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    tsids.push_back(static_cast<int>(GetU32(payload.data() + 4 + 4ull * i)));
  }
  return tsids;
}

std::string EncodeSkipTo(int64_t first_skipped_seq) {
  std::string out;
  PutU64(&out, static_cast<uint64_t>(first_skipped_seq));
  return out;
}

Result<int64_t> DecodeSkipTo(std::string_view payload) {
  if (payload.size() != 8) {
    return Status::ParseError("SKIP_TO payload must be 8 bytes");
  }
  return static_cast<int64_t>(GetU64(payload.data()));
}

std::string EncodeQuery(const RemoteQuerySpec& spec) {
  std::string out;
  PutU32(&out, spec.token);
  out.push_back(static_cast<char>(spec.method));
  out.push_back(static_cast<char>(spec.hole_policy));
  out.push_back(static_cast<char>(spec.tick_policy));
  out.push_back(static_cast<char>(spec.flags));
  PutU64(&out, static_cast<uint64_t>(spec.last_result_seq));
  out += spec.text;
  return out;
}

Result<RemoteQuerySpec> DecodeQuery(std::string_view payload) {
  // 4 (token) + 4 (option bytes) + 8 (resume seq); the text may be empty
  // on the wire (the channel rejects it with a status, not a parse error).
  if (payload.size() < 16) {
    return Status::ParseError("QUERY payload truncated");
  }
  RemoteQuerySpec spec;
  spec.token = GetU32(payload.data());
  spec.method = static_cast<uint8_t>(payload[4]);
  spec.hole_policy = static_cast<uint8_t>(payload[5]);
  spec.tick_policy = static_cast<uint8_t>(payload[6]);
  spec.flags = static_cast<uint8_t>(payload[7]);
  spec.last_result_seq = static_cast<int64_t>(GetU64(payload.data() + 8));
  spec.text.assign(payload.begin() + 16, payload.end());
  return spec;
}

std::string EncodeUnquery(uint64_t query_id) {
  std::string out;
  PutU64(&out, query_id);
  return out;
}

Result<uint64_t> DecodeUnquery(std::string_view payload) {
  if (payload.size() != 8) {
    return Status::ParseError("UNQUERY payload must be 8 bytes");
  }
  return GetU64(payload.data());
}

std::string EncodeQueryStatus(const QueryStatus& status) {
  std::string out;
  PutU32(&out, status.token);
  PutU64(&out, status.query_id);
  PutU32(&out, status.code);
  out += status.message;
  return out;
}

Result<QueryStatus> DecodeQueryStatus(std::string_view payload) {
  if (payload.size() < 16) {
    return Status::ParseError("QUERY_STATUS payload truncated");
  }
  QueryStatus status;
  status.token = GetU32(payload.data());
  status.query_id = GetU64(payload.data() + 4);
  status.code = GetU32(payload.data() + 12);
  status.message.assign(payload.begin() + 16, payload.end());
  return status;
}

Result<std::string> EncodeResultDelta(const ResultDelta& delta) {
  std::string out;
  PutU64(&out, delta.query_id);
  PutU64(&out, static_cast<uint64_t>(delta.eval_time_s));
  PutU32(&out, static_cast<uint32_t>(delta.added.size()));
  PutU32(&out, static_cast<uint32_t>(delta.removed.size()));
  for (const auto* items : {&delta.added, &delta.removed}) {
    for (const std::string& item : *items) {
      PutU32(&out, static_cast<uint32_t>(item.size()));
      out += item;
      if (out.size() > kMaxFramePayload) {
        return Status::InvalidArgument(StringPrintf(
            "RESULT delta for query %llu exceeds the %u-byte frame limit",
            static_cast<unsigned long long>(delta.query_id),
            kMaxFramePayload));
      }
    }
  }
  return out;
}

Result<ResultDelta> DecodeResultDelta(std::string_view payload) {
  if (payload.size() < 24) {
    return Status::ParseError("RESULT payload truncated");
  }
  ResultDelta delta;
  delta.query_id = GetU64(payload.data());
  delta.eval_time_s = static_cast<int64_t>(GetU64(payload.data() + 8));
  uint32_t added = GetU32(payload.data() + 16);
  uint32_t removed = GetU32(payload.data() + 20);
  size_t pos = 24;
  auto read_items = [&](uint32_t count,
                        std::vector<std::string>* out) -> Status {
    out->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (payload.size() - pos < 4) {
        return Status::ParseError("RESULT item length truncated");
      }
      uint32_t len = GetU32(payload.data() + pos);
      pos += 4;
      if (payload.size() - pos < len) {
        return Status::ParseError("RESULT item body truncated");
      }
      out->emplace_back(payload.substr(pos, len));
      pos += len;
    }
    return Status::OK();
  };
  // Item counts are bounded by the remaining bytes (each item costs at
  // least its 4-byte length prefix), so a forged count fails fast here
  // instead of driving a giant reserve().
  if ((static_cast<uint64_t>(added) + removed) * 4 > payload.size() - pos) {
    return Status::ParseError(StringPrintf(
        "RESULT promises %u items in %zu bytes", added + removed,
        payload.size() - pos));
  }
  Status s = read_items(added, &delta.added);
  if (!s.ok()) return s;
  s = read_items(removed, &delta.removed);
  if (!s.ok()) return s;
  if (pos != payload.size()) {
    return Status::ParseError("RESULT payload has trailing bytes");
  }
  return delta;
}

std::string EncodeExpired(const Expired& expired) {
  std::string out;
  out.push_back(static_cast<char>(expired.kind));
  switch (expired.kind) {
    case Expired::kRange:
      PutU64(&out, static_cast<uint64_t>(expired.first_seq));
      break;
    case Expired::kFiller:
      PutU64(&out, static_cast<uint64_t>(expired.filler_id));
      break;
    case Expired::kResultRange:
      PutU64(&out, expired.query_id);
      PutU64(&out, static_cast<uint64_t>(expired.first_seq));
      break;
  }
  return out;
}

Result<Expired> DecodeExpired(std::string_view payload) {
  if (payload.empty()) {
    return Status::ParseError("EXPIRED payload truncated");
  }
  Expired expired;
  uint8_t kind = static_cast<uint8_t>(payload[0]);
  switch (kind) {
    case Expired::kRange:
      if (payload.size() != 9) {
        return Status::ParseError("EXPIRED range payload must be 9 bytes");
      }
      expired.kind = Expired::kRange;
      expired.first_seq = static_cast<int64_t>(GetU64(payload.data() + 1));
      return expired;
    case Expired::kFiller:
      if (payload.size() != 9) {
        return Status::ParseError("EXPIRED filler payload must be 9 bytes");
      }
      expired.kind = Expired::kFiller;
      expired.filler_id = static_cast<int64_t>(GetU64(payload.data() + 1));
      return expired;
    case Expired::kResultRange:
      if (payload.size() != 17) {
        return Status::ParseError("EXPIRED result payload must be 17 bytes");
      }
      expired.kind = Expired::kResultRange;
      expired.query_id = GetU64(payload.data() + 1);
      expired.first_seq = static_cast<int64_t>(GetU64(payload.data() + 9));
      return expired;
    default:
      return Status::ParseError(
          StringPrintf("unknown EXPIRED kind %u", kind));
  }
}

uint64_t TagStructureHash(std::string_view ts_xml) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (unsigned char c : ts_xml) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  // 0 means "unknown" in HELLO; remap the (astronomically unlikely) zero.
  return h == 0 ? 1 : h;
}

uint64_t TagStructureHash(const frag::TagStructure& ts) {
  return TagStructureHash(ts.ToXml());
}

}  // namespace xcql::net
