#include "sim/serialize.h"

#include <gtest/gtest.h>

#include "sbst/generator.h"

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
