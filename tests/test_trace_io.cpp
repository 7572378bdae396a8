// Corrupt-input suite for trace serialization (trace_io.hpp).
//
// The binary reader consumes an untrusted header: a corrupt or truncated
// file must fail with a clean exception before any large allocation, and
// the CSV reader must reject rows that strtoll/strtoull would quietly
// mis-parse (trailing garbage, saturated out-of-range values, negative
// unsigned fields). A CSV <-> binary round-trip property test over
// randomized traces pins the two formats to each other.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/generator.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

class TraceIoCorruptTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  void write_raw(const std::string& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  /// Magic + count header + `payload_records` packed 24-byte records of
  /// id i, size 10, time i — with the header count possibly lying.
  std::string binary_with_count(std::uint64_t claimed_count,
                                std::uint64_t payload_records,
                                std::size_t truncate_tail_bytes = 0) {
    std::string bytes = "CDNTRACE";
    bytes.append(reinterpret_cast<const char*>(&claimed_count),
                 sizeof(claimed_count));
    for (std::uint64_t i = 0; i < payload_records; ++i) {
      const std::int64_t time = static_cast<std::int64_t>(i);
      const std::uint64_t id = i;
      const std::uint64_t size = 10;
      bytes.append(reinterpret_cast<const char*>(&time), sizeof(time));
      bytes.append(reinterpret_cast<const char*>(&id), sizeof(id));
      bytes.append(reinterpret_cast<const char*>(&size), sizeof(size));
    }
    bytes.resize(bytes.size() - truncate_tail_bytes);
    return bytes;
  }

  std::string path_ = "/tmp/scip_test_trace_io_corrupt.bin";
};

TEST_F(TraceIoCorruptTest, BadMagicThrows) {
  write_raw("NOTATRACE???????");
  EXPECT_THROW(read_binary(path_), std::runtime_error);
}

TEST_F(TraceIoCorruptTest, TruncatedHeaderThrows) {
  // Magic present but the count field cut short.
  write_raw(std::string("CDNTRACE") + "\x03\x00\x00");
  EXPECT_THROW(read_binary(path_), std::runtime_error);
}

TEST_F(TraceIoCorruptTest, OversizedCountFailsWithoutAllocating) {
  // A corrupt header claiming ~10^18 records once drove requests.resize()
  // into a multi-GB allocation before the first record read; now the count
  // is validated against the actual file size first.
  write_raw(binary_with_count(1ULL << 60, /*payload_records=*/2));
  try {
    (void)read_binary(path_);
    FAIL() << "oversized count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated header"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TraceIoCorruptTest, CountLargerThanPayloadThrows) {
  // Off-by-a-few lie: 5 claimed, 3 present.
  write_raw(binary_with_count(5, 3));
  EXPECT_THROW(read_binary(path_), std::runtime_error);
}

TEST_F(TraceIoCorruptTest, TruncatedRecordThrows) {
  // Correct count, but the last record loses its final 4 bytes.
  write_raw(binary_with_count(3, 3, /*truncate_tail_bytes=*/4));
  EXPECT_THROW(read_binary(path_), std::runtime_error);
}

TEST_F(TraceIoCorruptTest, ExactCountIsAccepted) {
  write_raw(binary_with_count(3, 3));
  const Trace t = read_binary(path_);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[2].id, 2u);
  EXPECT_EQ(t[2].size, 10u);
}

class TraceIoCsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  void write_csv_text(const std::string& text) {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
  }

  std::string path_ = "/tmp/scip_test_trace_io_corrupt.csv";
};

TEST_F(TraceIoCsvTest, TrailingGarbageAfterSizeRejected) {
  // Pre-fix, "1,2,3junk" parsed as size 3 and the junk was dropped.
  write_csv_text("time,id,size\n1,2,3junk\n");
  EXPECT_THROW(read_csv(path_), std::runtime_error);
}

TEST_F(TraceIoCsvTest, ExtraColumnRejected) {
  write_csv_text("time,id,size\n1,2,3,4\n");
  EXPECT_THROW(read_csv(path_), std::runtime_error);
}

TEST_F(TraceIoCsvTest, OutOfRangeSizeRejected) {
  // strtoull saturates to ULLONG_MAX and only reports via errno == ERANGE;
  // pre-fix the saturated value was accepted silently.
  write_csv_text("time,id,size\n1,2,99999999999999999999999999\n");
  EXPECT_THROW(read_csv(path_), std::runtime_error);
}

TEST_F(TraceIoCsvTest, OutOfRangeTimeRejected) {
  write_csv_text("time,id,size\n99999999999999999999999999,2,3\n");
  EXPECT_THROW(read_csv(path_), std::runtime_error);
}

TEST_F(TraceIoCsvTest, NegativeUnsignedFieldRejected) {
  // strtoull parses "-5" by wrapping to 2^64-5; an unsigned trace field
  // with a minus sign is malformed, not a huge number.
  write_csv_text("time,id,size\n1,-5,3\n");
  EXPECT_THROW(read_csv(path_), std::runtime_error);
  write_csv_text("time,id,size\n1,5,-3\n");
  EXPECT_THROW(read_csv(path_), std::runtime_error);
}

TEST_F(TraceIoCsvTest, CrlfLineEndingsAccepted) {
  // Rejecting trailing garbage must not reject Windows line endings.
  write_csv_text("time,id,size\r\n7,8,9\r\n");
  const Trace t = read_csv(path_);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].time, 7);
  EXPECT_EQ(t[0].id, 8u);
  EXPECT_EQ(t[0].size, 9u);
}

TEST_F(TraceIoCsvTest, NegativeTimeStillAccepted) {
  write_csv_text("time,id,size\n-4,8,9\n");
  const Trace t = read_csv(path_);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].time, -4);
}

// ---------------------------------------------- round-trip property ----

void expect_traces_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "record " << i;
    EXPECT_EQ(a[i].id, b[i].id) << "record " << i;
    EXPECT_EQ(a[i].size, b[i].size) << "record " << i;
  }
}

TEST(TraceIoRoundTrip, CsvAndBinaryAgreeOnRandomTraces) {
  const std::string csv = "/tmp/scip_test_trace_io_rt.csv";
  const std::string bin = "/tmp/scip_test_trace_io_rt.bin";
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    // Randomized trace straight from the deterministic RNG: extreme ids
    // and sizes included, so the text format's parse/format pair is
    // exercised beyond what the generator produces.
    Rng rng(seed);
    Trace t;
    t.name = "roundtrip";
    const std::size_t n = 200 + rng.below(300);
    std::int64_t time = -50;
    for (std::size_t i = 0; i < n; ++i) {
      time += static_cast<std::int64_t>(rng.below(1000));
      const std::uint64_t id = rng.next();  // full 64-bit range
      const std::uint64_t size = 1 + rng.below(1ULL << 40);
      t.requests.push_back(Request{time, id, size, -1});
    }

    write_csv(t, csv);
    const Trace via_csv = read_csv(csv, t.name);
    expect_traces_equal(t, via_csv);

    write_binary(via_csv, bin);
    const Trace via_bin = read_binary(bin, t.name);
    expect_traces_equal(t, via_bin);

    // And the reverse direction: binary first, then CSV.
    write_binary(t, bin);
    const Trace b2 = read_binary(bin, t.name);
    write_csv(b2, csv);
    expect_traces_equal(t, read_csv(csv, t.name));
  }
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

TEST(TraceIoRoundTrip, GeneratedWorkloadSurvivesBothFormats) {
  const std::string csv = "/tmp/scip_test_trace_io_gen.csv";
  const std::string bin = "/tmp/scip_test_trace_io_gen.bin";
  const Trace t = generate_trace(cdn_t_like(0.005));
  write_csv(t, csv);
  write_binary(t, bin);
  expect_traces_equal(read_csv(csv, t.name), read_binary(bin, t.name));
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

}  // namespace
}  // namespace cdn
