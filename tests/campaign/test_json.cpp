#include "campaign/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace netcons::campaign::json {
namespace {

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

void expect_too_deep(const std::string& text) {
  try {
    (void)parse(text);
    FAIL() << "parsed a document nested past kMaxDepth";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "json: nesting too deep");
  }
}

TEST(Json, NestingUpToTheCapParses) {
  EXPECT_NO_THROW((void)parse(nested_arrays(kMaxDepth - 1)));
  const Value deepest = parse(nested_arrays(kMaxDepth));
  EXPECT_EQ(deepest.as_array().size(), 1u);
}

TEST(Json, NestingPastTheCapThrows) {
  expect_too_deep(nested_arrays(kMaxDepth + 1));
  std::string objects;
  for (int i = 0; i <= kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(static_cast<std::size_t>(kMaxDepth) + 1, '}');
  expect_too_deep(objects);
}

TEST(Json, TwoMegabytesOfOpenBracketsThrowsInsteadOfOverflowingTheStack) {
  expect_too_deep(std::string(2u << 20, '['));
}

TEST(Json, FlatDocumentsStillParse) {
  const Value document = parse(R"({"n": [1, 2, {"x": "y"}], "ok": true, "none": null})");
  const Object& object = document.as_object();
  EXPECT_EQ(field(object, "n").as_array().size(), 3u);
  EXPECT_TRUE(field(object, "ok").as_bool());
  EXPECT_EQ(field(field(object, "n").as_array()[2].as_object(), "x").as_string(), "y");
}

TEST(Json, UnicodeEscapeTakesExactlyFourHexDigits) {
  EXPECT_EQ(parse(R"("\u0041\u007a")").as_string(), "Az");
  // Each of these used to escape as std::invalid_argument from std::stoul
  // or parse a hex prefix ("\u12zz" read as 0x12).
  for (const char* bad : {R"("\uZZZZ")", R"("\u12zz")", R"("\u 7f0")", R"("\u+07f")"}) {
    EXPECT_THROW((void)parse(bad), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace netcons::campaign::json
