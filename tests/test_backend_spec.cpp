// The `--litho-backend` spelling: what parses, what each spelling names, and
// that every malformed spelling is a typed kInvalidInput naming the flag.
#include <gtest/gtest.h>

#include <string>

#include "common/status.hpp"
#include "litho/backend.hpp"

namespace ganopc::litho {
namespace {

TEST(BackendSpec, AcceptedSpellingsRoundTripThroughTheirName) {
  struct Case {
    const char* text;
    LithoBackendSpec::Kind kind;
    int tcc_kernels;
    const char* name;
  };
  const Case cases[] = {
      {"", LithoBackendSpec::Kind::Abbe, 0, "abbe"},
      {"abbe", LithoBackendSpec::Kind::Abbe, 0, "abbe"},
      {"tcc", LithoBackendSpec::Kind::Tcc, 0, "tcc"},
      {"tcc:8", LithoBackendSpec::Kind::Tcc, 8, "tcc:8"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "'" << c.text << "'");
    const LithoBackendSpec spec = parse_litho_backend(c.text);
    EXPECT_EQ(spec.kind, c.kind);
    EXPECT_EQ(spec.tcc_kernels, c.tcc_kernels);
    const std::string name = litho_backend_name(spec);
    EXPECT_EQ(name, c.name);
    const LithoBackendSpec again = parse_litho_backend(name);
    EXPECT_EQ(again.kind, spec.kind);
    EXPECT_EQ(again.tcc_kernels, spec.tcc_kernels);
  }
}

TEST(BackendSpec, MalformedSpellingsAreTypedInvalidInput) {
  for (const char* text :
       {"tcc:", "tcc:0", "tcc:-1", "tcc:8x", "TCC", "abbe:3", "tcc:99999999999"}) {
    SCOPED_TRACE(::testing::Message() << "'" << text << "'");
    try {
      parse_litho_backend(text);
      ADD_FAILURE() << "accepted";
    } catch (const std::exception& e) {
      const Status s = status_from_exception(e);
      EXPECT_EQ(s.code(), StatusCode::kInvalidInput) << s.message();
      EXPECT_NE(s.message().find("--litho-backend"), std::string::npos) << s.message();
    }
  }
}

}  // namespace
}  // namespace ganopc::litho
