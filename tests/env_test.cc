#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace cafe {
namespace {

std::string TestPath(const char* name) {
  return TempDir() + "/cafe_env_test_" + name;
}

TEST(EnvTest, WriteReadRoundTrip) {
  std::string path = TestPath("rt");
  std::string payload = "hello";
  payload.push_back('\0');
  payload += "world\nbinary\xff ok";
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, payload);
  EXPECT_TRUE(RemoveFile(path).ok());
}

TEST(EnvTest, ReadMissingFileFails) {
  std::string data;
  Status s = ReadFileToString(TestPath("missing_nope"), &data);
  EXPECT_TRUE(s.IsIOError());
}

TEST(EnvTest, RemoveFileRemovesIt) {
  std::string path = TestPath("removed");
  ASSERT_TRUE(WriteStringToFile(path, "x").ok());
  ASSERT_TRUE(RemoveFile(path).ok());
  std::string data;
  EXPECT_TRUE(ReadFileToString(path, &data).IsIOError());
}

TEST(EnvTest, RemoveMissingIsOk) {
  EXPECT_TRUE(RemoveFile(TestPath("never_created")).ok());
}

TEST(EnvTest, OverwriteTruncates) {
  std::string path = TestPath("trunc");
  ASSERT_TRUE(WriteStringToFile(path, "a long first payload").ok());
  ASSERT_TRUE(WriteStringToFile(path, "short").ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "short");
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(EnvTest, GetEnvIntDefault) {
  unsetenv("CAFE_TEST_ENV_INT");
  EXPECT_EQ(GetEnvInt("CAFE_TEST_ENV_INT", 17), 17);
}

TEST(EnvTest, GetEnvIntParses) {
  setenv("CAFE_TEST_ENV_INT", "123", 1);
  EXPECT_EQ(GetEnvInt("CAFE_TEST_ENV_INT", 17), 123);
  setenv("CAFE_TEST_ENV_INT", "-5", 1);
  EXPECT_EQ(GetEnvInt("CAFE_TEST_ENV_INT", 17), -5);
  setenv("CAFE_TEST_ENV_INT", "junk", 1);
  EXPECT_EQ(GetEnvInt("CAFE_TEST_ENV_INT", 17), 17);
  unsetenv("CAFE_TEST_ENV_INT");
}

TEST(EnvTest, TempDirNonEmpty) {
  EXPECT_FALSE(TempDir().empty());
}

}  // namespace
}  // namespace cafe
