#include "sim/serialize.h"

#include <gtest/gtest.h>

#include "sbst/generator.h"
#include "spec/scenario.h"
#include "util/rng.h"

namespace xtest::sim {
namespace {

TEST(Serialize, ImageRoundTrip) {
  cpu::MemoryImage img;
  img.set(0x000, 0xFF);
  img.set(0x010, 0x2F);
  img.set(0xFFF, 0x01);
  const std::string text = image_to_text(img);
  const cpu::MemoryImage back = image_from_text(text);
  EXPECT_EQ(back.defined_count(), 3u);
  EXPECT_EQ(back.at(0x000), 0xFF);
  EXPECT_EQ(back.at(0x010), 0x2F);
  EXPECT_EQ(back.at(0xFFF), 0x01);
  EXPECT_FALSE(back.defined(0x011));
}

TEST(Serialize, ImageTextFormat) {
  cpu::MemoryImage img;
  img.set(0x010, 0x2F);
  EXPECT_EQ(image_to_text(img), "0x010: 2f\n");
}

TEST(Serialize, ImageRejectsGarbage) {
  EXPECT_THROW(image_from_text("not a line\n"), std::runtime_error);
  EXPECT_THROW(image_from_text("0x1000: 00\n"), std::runtime_error);
  EXPECT_THROW(image_from_text("0x010: 1ff\n"), std::runtime_error);
  // Numbers that used to wrap, a sign, trailing junk and a repeated
  // address: each is refused, naming its line.
  for (const char* bad :
       {"0x100000010: 2f\n", "0x-fffffff0: 2f\n", "0x010: -ffffffff\n",
        "0x010: 100000030\n", "0x010: 2f trailing junk\n",
        "0x011: 00\n0x010: 2f\n0x010: 30\n"}) {
    try {
      image_from_text(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      const std::string line =
          std::string(bad).find("0x010: 30") != std::string::npos ? "line 3"
                                                                 : "line 1";
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, ImageAcceptsUnpaddedAndUppercaseHex) {
  const cpu::MemoryImage img = image_from_text("0x1A: 2F\n0xfff:0 \r\n\n");
  EXPECT_EQ(img.defined_count(), 2u);
  EXPECT_EQ(img.at(0x01A), 0x2F);
  EXPECT_EQ(img.at(0xFFF), 0x00);
  EXPECT_TRUE(img.defined(0xFFF));
}

TEST(Serialize, FuzzMutatedImagesRoundTripOrThrow) {
  // Seeded mutation fuzz over the image of every paper-baseline session
  // program: bit flips, byte inserts and deletes, truncations and
  // duplicated lines.  A mutated text either throws the typed error or
  // yields an image whose own text parses back to the same image.
  const auto sessions = spec::builtin_scenario("paper-baseline").make_sessions();
  util::Rng rng(0x1A6E);
  int refused = 0, parsed = 0;
  for (const sbst::GenerationResult& s : sessions) {
    if (s.program.tests.empty()) continue;
    const std::string valid = image_to_text(s.program.image);
    for (int n = 0; n < 500; ++n) {
      std::string text = valid;
      const std::uint64_t edits = 1 + rng.below(3);
      for (std::uint64_t k = 0; k < edits && !text.empty(); ++k) {
        const std::size_t at = rng.below(text.size());
        switch (rng.below(5)) {
          case 0:
            text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
            break;
          case 1: text.insert(at, 1, static_cast<char>(rng.below(256))); break;
          case 2: text.erase(at, 1); break;
          case 3: text.resize(at); break;
          default: {  // duplicate the line holding `at`
            const std::size_t b = text.rfind('\n', at);
            const std::size_t from = b == std::string::npos ? 0 : b + 1;
            const std::size_t e = text.find('\n', at);
            const std::size_t to = e == std::string::npos ? text.size() : e + 1;
            text.insert(to, text.substr(from, to - from));
            break;
          }
        }
      }
      try {
        const cpu::MemoryImage img = image_from_text(text);
        const cpu::MemoryImage back = image_from_text(image_to_text(img));
        EXPECT_EQ(back.raw(), img.raw()) << text;
        EXPECT_EQ(back.defined_count(), img.defined_count()) << text;
        ++parsed;
      } catch (const std::runtime_error&) {
        ++refused;
      }
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(parsed, 0);
}

TEST(Serialize, GeneratedProgramRoundTrips) {
  const auto gen =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const cpu::MemoryImage back =
      image_from_text(image_to_text(gen.program.image));
  EXPECT_EQ(back.raw(), gen.program.image.raw());
  EXPECT_EQ(back.defined_count(), gen.program.image.defined_count());
}

TEST(Serialize, ImageErrorsNameTheLine) {
  try {
    image_from_text("0x010: 2f\n0x1000: 00\n");
    FAIL() << "accepted out-of-range address";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace xtest::sim
