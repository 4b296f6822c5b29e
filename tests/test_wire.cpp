// Negative-path tests for the xwf1 wire format (core/wire.h). The lease
// coordinator and the serve daemon both treat a corrupt stream as a
// crashed peer, so the decoder's job is to (a) never yield a frame that
// was not sent, (b) latch corruption permanently, and (c) treat a
// truncated tail as incomplete — not corrupt — because a torn final
// frame is the *expected* residue of a killed worker.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/wire.h"
#include "wire_negatives.h"

namespace xtv {
namespace {

using wiretest::kChecksumBytes;
using wiretest::kHeaderBytes;

std::vector<WireFrame> decode_all(const std::string& stream,
                                  WireDecoder* decoder) {
  decoder->feed(stream.data(), stream.size());
  std::vector<WireFrame> got;
  WireFrame f;
  while (decoder->next(&f)) got.push_back(f);
  return got;
}

// ---------------------------------------------------------------------------
// Truncation: every proper prefix of a frame is "incomplete", never
// "corrupt", and feeding the remaining bytes completes the frame.

TEST(WireNegative, TruncationAtEveryBoundaryByteIsIncompleteNotCorrupt) {
  const std::string payload = "42 some finding payload";
  const std::string frame =
      wire_encode_frame(WireType::kUnitResult, payload);
  ASSERT_EQ(frame.size(), kHeaderBytes + payload.size() + kChecksumBytes);

  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    WireDecoder d;
    d.feed(frame.data(), cut);
    WireFrame f;
    EXPECT_FALSE(d.next(&f));
    EXPECT_FALSE(d.corrupt());
    EXPECT_EQ(d.buffered(), cut);

    // The stream resumes: the tail bytes complete the frame bit-exactly.
    d.feed(frame.data() + cut, frame.size() - cut);
    ASSERT_TRUE(d.next(&f));
    EXPECT_EQ(f.type, WireType::kUnitResult);
    EXPECT_EQ(f.payload, payload);
    EXPECT_FALSE(d.corrupt());
    EXPECT_EQ(d.buffered(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Oversized declared length: the length field says "1 MiB + 1" — the
// decoder must reject it immediately instead of buffering forever while
// it waits for a payload that will never arrive.

TEST(WireNegative, OversizedDeclaredLengthLatchesCorrupt) {
  const std::string frame = wiretest::with_declared_length(
      wire_encode_frame(WireType::kHeartbeat, "7"), (1u << 20) + 1);

  WireDecoder d;
  WireFrame f;
  d.feed(frame.data(), frame.size());
  EXPECT_FALSE(d.next(&f));
  EXPECT_TRUE(d.corrupt());

  // Corruption is latched: even a pristine frame afterwards yields nothing.
  const std::string good = wire_encode_frame(WireType::kHeartbeat, "8");
  d.feed(good.data(), good.size());
  EXPECT_FALSE(d.next(&f));
  EXPECT_TRUE(d.corrupt());
}

// ---------------------------------------------------------------------------
// Type bytes outside the valid range are corruption, on both edges.

TEST(WireNegative, OutOfRangeTypeByteLatchesCorrupt) {
  for (std::uint8_t bad : wiretest::out_of_range_type_bytes()) {
    SCOPED_TRACE("type byte " + std::to_string(bad));
    const std::string frame = wiretest::with_type_byte(
        wire_encode_frame(WireType::kHello, "0 1"), bad);
    WireDecoder d;
    WireFrame f;
    d.feed(frame.data(), frame.size());
    EXPECT_FALSE(d.next(&f));
    EXPECT_TRUE(d.corrupt());
  }
}

TEST(WireNegative, BadMagicLatchesCorrupt) {
  const std::string frame =
      wiretest::with_bad_magic(wire_encode_frame(WireType::kHello, "0 1"));
  WireDecoder d;
  WireFrame f;
  d.feed(frame.data(), frame.size());
  EXPECT_FALSE(d.next(&f));
  EXPECT_TRUE(d.corrupt());
}

// ---------------------------------------------------------------------------
// Bit-flip fuzz: flip every single bit of a two-frame stream, one at a
// time. The safety property is not "the decoder always detects the flip"
// in the abstract — it is: any frame the decoder DOES yield is byte-equal
// to a frame that was actually sent. (A flip in frame 2 must not disturb
// frame 1; a flip in frame 1 must yield nothing from frame 1.)

TEST(WireNegative, SingleBitFlipNeverYieldsAForgedFrame) {
  const WireFrame sent[2] = {
      {WireType::kJobFinding, "00c0ffee00c0ffee net=5 peak=0x1.8p-3"},
      {WireType::kJobDone, "00c0ffee00c0ffee done eligible=80"},
  };
  const std::string f0 = wire_encode_frame(sent[0].type, sent[0].payload);
  const std::string f1 = wire_encode_frame(sent[1].type, sent[1].payload);
  const std::string stream = f0 + f1;

  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flip byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      const std::string mutated = wiretest::with_bit_flip(stream, byte, bit);

      WireDecoder d;
      const std::vector<WireFrame> got = decode_all(mutated, &d);

      // Never more frames than were sent, and every yielded frame must
      // be one of the originals, in order.
      ASSERT_LE(got.size(), 2u);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].type, sent[i].type);
        EXPECT_EQ(got[i].payload, sent[i].payload);
      }

      // A flip inside frame 2 must leave frame 1 intact.
      if (byte >= f0.size()) {
        ASSERT_GE(got.size(), 1u);
        EXPECT_EQ(got[0].payload, sent[0].payload);
      }
      // A flip anywhere in the checksummed region (type, payload, or
      // checksum) of frame 1 must suppress frame 1.
      if (byte == 4 || (byte >= kHeaderBytes && byte < f0.size())) {
        EXPECT_TRUE(got.empty());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A length-field flip can only make the frame incomplete (larger length)
// or checksum-mismatched (smaller length); it can never resync onto a
// forged frame. Covered by the fuzz above, but this pins the "larger
// length stays quietly incomplete" half explicitly.

TEST(WireNegative, LengthGrowthWithinCapStaysIncomplete) {
  const std::string payload = "short";
  const std::string frame = wiretest::with_declared_length(
      wire_encode_frame(WireType::kHeartbeat, payload),
      static_cast<std::uint32_t>(payload.size()) + 64);

  WireDecoder d;
  WireFrame f;
  d.feed(frame.data(), frame.size());
  EXPECT_FALSE(d.next(&f));
  EXPECT_FALSE(d.corrupt());  // waiting for bytes, not corrupt
  EXPECT_EQ(d.buffered(), frame.size());
}

// ---------------------------------------------------------------------------
// The shared sweep (replayed over live TCP by test_serve.cpp) must never
// contain a mutation the decoder accepts as a frame — otherwise the serve
// sweep would "pass" by accident.

TEST(WireNegative, SharedSweepNeverYieldsAFrame) {
  const std::string frame =
      wire_encode_frame(WireType::kJobSubmit, "t0 nets=40");
  for (const auto& m : wiretest::negative_sweep(frame)) {
    SCOPED_TRACE(m.name);
    EXPECT_NE(wiretest::classify(m.bytes), wiretest::StreamVerdict::kYields);
  }
}

}  // namespace
}  // namespace xtv
