#include "db/query.h"

#include <cctype>

#include "base/strings.h"

namespace avdb {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kContains:
      return "contains";
  }
  return "?";
}

namespace {

// ------------------------------------------------------------- AST nodes --

class TrueNode final : public Predicate {
 public:
  bool Matches(const DbObject&) const override { return true; }
  std::string ToString() const override { return "true"; }
  bool EqualityPin(std::string*, ScalarValue*) const override { return false; }
};

class CompareNode final : public Predicate {
 public:
  CompareNode(std::string attr, CompareOp op, ScalarValue literal)
      : attr_(std::move(attr)), op_(op), literal_(std::move(literal)) {}

  bool Matches(const DbObject& object) const override {
    auto value = object.GetScalar(attr_);
    if (!value.ok()) return false;
    return Compare(value.value());
  }

  std::string ToString() const override {
    std::string lit = std::holds_alternative<std::string>(literal_)
                          ? "\"" + std::get<std::string>(literal_) + "\""
                          : std::to_string(std::get<int64_t>(literal_));
    return attr_ + " " + std::string(CompareOpName(op_)) + " " + lit;
  }

  bool EqualityPin(std::string* attribute, ScalarValue* value) const override {
    if (op_ != CompareOp::kEq) return false;
    *attribute = attr_;
    *value = literal_;
    return true;
  }

 private:
  bool Compare(const ScalarValue& lhs) const {
    // Numeric comparison when both sides are ints; otherwise string
    // comparison of the rendered forms (dates compare correctly this way).
    if (std::holds_alternative<int64_t>(lhs) &&
        std::holds_alternative<int64_t>(literal_)) {
      return Apply(std::get<int64_t>(lhs), std::get<int64_t>(literal_));
    }
    const std::string l = ScalarToString(lhs);
    const std::string r = ScalarToString(literal_);
    if (op_ == CompareOp::kContains) {
      return l.find(r) != std::string::npos;
    }
    return Apply(l, r);
  }

  template <typename T>
  bool Apply(const T& l, const T& r) const {
    switch (op_) {
      case CompareOp::kEq:
        return l == r;
      case CompareOp::kNe:
        return l != r;
      case CompareOp::kLt:
        return l < r;
      case CompareOp::kLe:
        return l <= r;
      case CompareOp::kGt:
        return l > r;
      case CompareOp::kGe:
        return l >= r;
      case CompareOp::kContains:
        return false;  // handled above for strings
    }
    return false;
  }

  std::string attr_;
  CompareOp op_;
  ScalarValue literal_;
};

class AndNode final : public Predicate {
 public:
  AndNode(PredicatePtr l, PredicatePtr r) : l_(std::move(l)), r_(std::move(r)) {}
  bool Matches(const DbObject& o) const override {
    return l_->Matches(o) && r_->Matches(o);
  }
  std::string ToString() const override {
    return "(" + l_->ToString() + " and " + r_->ToString() + ")";
  }
  bool EqualityPin(std::string* attribute, ScalarValue* value) const override {
    // Any conjunct's pin narrows the whole conjunction.
    return l_->EqualityPin(attribute, value) ||
           r_->EqualityPin(attribute, value);
  }

 private:
  PredicatePtr l_;
  PredicatePtr r_;
};

class OrNode final : public Predicate {
 public:
  OrNode(PredicatePtr l, PredicatePtr r) : l_(std::move(l)), r_(std::move(r)) {}
  bool Matches(const DbObject& o) const override {
    return l_->Matches(o) || r_->Matches(o);
  }
  std::string ToString() const override {
    return "(" + l_->ToString() + " or " + r_->ToString() + ")";
  }
  bool EqualityPin(std::string*, ScalarValue*) const override {
    return false;  // a disjunction pins nothing
  }

 private:
  PredicatePtr l_;
  PredicatePtr r_;
};

class NotNode final : public Predicate {
 public:
  explicit NotNode(PredicatePtr inner) : inner_(std::move(inner)) {}
  bool Matches(const DbObject& o) const override {
    return !inner_->Matches(o);
  }
  std::string ToString() const override {
    return "(not " + inner_->ToString() + ")";
  }
  bool EqualityPin(std::string*, ScalarValue*) const override {
    return false;
  }

 private:
  PredicatePtr inner_;
};

// -------------------------------------------------------------- Tokenizer --

enum class TokenKind {
  kIdent,
  kString,
  kNumber,
  kOp,      // = != < <= > >=
  kLparen,
  kRparen,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  size_t position;
};

class Tokenizer {
 public:
  explicit Tokenizer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      const size_t start = pos_;
      if (c == '(') {
        tokens.push_back({TokenKind::kLparen, "(", start});
        ++pos_;
      } else if (c == ')') {
        tokens.push_back({TokenKind::kRparen, ")", start});
        ++pos_;
      } else if (c == '"' || c == '\'') {
        auto s = ReadQuoted(c);
        if (!s.ok()) return s.status();
        tokens.push_back({TokenKind::kString, s.value(), start});
      } else if (c == '=' ) {
        tokens.push_back({TokenKind::kOp, "=", start});
        ++pos_;
      } else if (c == '!' || c == '<' || c == '>') {
        std::string op(1, c);
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '=') {
          op += '=';
          ++pos_;
        }
        if (op == "!") {
          return Status::InvalidArgument("stray '!' at position " +
                                         std::to_string(start));
        }
        tokens.push_back({TokenKind::kOp, op, start});
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
        std::string num;
        if (c == '-') {
          num += c;
          ++pos_;
        }
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          num += text_[pos_++];
        }
        if (num.empty() || num == "-") {
          return Status::InvalidArgument("bad number at position " +
                                         std::to_string(start));
        }
        tokens.push_back({TokenKind::kNumber, num, start});
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::string ident;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '.')) {
          ident += text_[pos_++];
        }
        tokens.push_back({TokenKind::kIdent, ident, start});
      } else {
        return Status::InvalidArgument("unexpected character '" +
                                       std::string(1, c) + "' at position " +
                                       std::to_string(start));
      }
    }
    tokens.push_back({TokenKind::kEnd, "", text_.size()});
    return tokens;
  }

 private:
  Result<std::string> ReadQuoted(char quote) {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      out += text_[pos_++];
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unterminated string literal");
    }
    ++pos_;  // closing quote
    return out;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------------- Parser --

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<PredicatePtr> Parse() {
    auto expr = ParseOr(0);
    if (!expr.ok()) return expr;
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input");
    }
    return expr;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(const std::string& kw) const {
    return Peek().kind == TokenKind::kIdent &&
           AsciiToLower(Peek().text) == kw;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("query syntax error at position " +
                                   std::to_string(Peek().position) + ": " +
                                   message);
  }

  // `depth` counts the `not` and `(` levels enclosing the current term.
  // ParseUnary recurses once per level, so it is capped: hostile text must
  // fail with a Status, not overflow the stack.
  static constexpr int kMaxNesting = 256;

  // Joins one more `and`/`or` term onto the tree. Flat chains are parsed
  // by a loop, not recursion, but they still build one tree level per
  // term, so the total is capped as well.
  Status CountTerm() {
    if (++connectives_ >= kMaxPredicateTerms) {
      return Error("more than " + std::to_string(kMaxPredicateTerms) +
                   " and/or terms");
    }
    return Status::OK();
  }

  Result<PredicatePtr> ParseOr(int depth) {
    auto lhs = ParseAnd(depth);
    if (!lhs.ok()) return lhs;
    PredicatePtr node = lhs.value();
    while (PeekKeyword("or")) {
      AVDB_RETURN_IF_ERROR(CountTerm());
      Advance();
      auto rhs = ParseAnd(depth);
      if (!rhs.ok()) return rhs;
      node = std::make_shared<OrNode>(node, rhs.value());
    }
    return node;
  }

  Result<PredicatePtr> ParseAnd(int depth) {
    auto lhs = ParseUnary(depth);
    if (!lhs.ok()) return lhs;
    PredicatePtr node = lhs.value();
    while (PeekKeyword("and")) {
      AVDB_RETURN_IF_ERROR(CountTerm());
      Advance();
      auto rhs = ParseUnary(depth);
      if (!rhs.ok()) return rhs;
      node = std::make_shared<AndNode>(node, rhs.value());
    }
    return node;
  }

  Result<PredicatePtr> ParseUnary(int depth) {
    const bool nests =
        PeekKeyword("not") || Peek().kind == TokenKind::kLparen;
    if (nests && depth >= kMaxNesting) {
      return Error("nesting deeper than " + std::to_string(kMaxNesting) +
                   " levels");
    }
    if (PeekKeyword("not")) {
      Advance();
      auto inner = ParseUnary(depth + 1);
      if (!inner.ok()) return inner;
      return PredicatePtr(std::make_shared<NotNode>(inner.value()));
    }
    if (Peek().kind == TokenKind::kLparen) {
      Advance();
      auto inner = ParseOr(depth + 1);
      if (!inner.ok()) return inner;
      if (Peek().kind != TokenKind::kRparen) {
        return Error("expected ')'");
      }
      Advance();
      return inner;
    }
    return ParseComparison();
  }

  Result<PredicatePtr> ParseComparison() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected attribute name");
    }
    const std::string attr = Advance().text;

    CompareOp op;
    if (Peek().kind == TokenKind::kOp) {
      const std::string text = Advance().text;
      if (text == "=") {
        op = CompareOp::kEq;
      } else if (text == "!=") {
        op = CompareOp::kNe;
      } else if (text == "<") {
        op = CompareOp::kLt;
      } else if (text == "<=") {
        op = CompareOp::kLe;
      } else if (text == ">") {
        op = CompareOp::kGt;
      } else {
        op = CompareOp::kGe;
      }
    } else if (PeekKeyword("contains")) {
      Advance();
      op = CompareOp::kContains;
    } else {
      return Error("expected comparison operator");
    }

    if (Peek().kind == TokenKind::kString) {
      return PredicatePtr(
          std::make_shared<CompareNode>(attr, op, Advance().text));
    }
    if (Peek().kind == TokenKind::kNumber) {
      auto value = ParseInt64(Advance().text);
      if (!value.ok()) return value.status();
      return PredicatePtr(
          std::make_shared<CompareNode>(attr, op, value.value()));
    }
    return Error("expected literal");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int connectives_ = 0;
};

}  // namespace

Result<PredicatePtr> ParsePredicate(const std::string& text) {
  if (text.size() > kMaxPredicateBytes) {
    return Status::InvalidArgument(
        "predicate text is " + std::to_string(text.size()) +
        " bytes, over the " + std::to_string(kMaxPredicateBytes) +
        "-byte cap that bounds its terms");
  }
  if (StripWhitespace(text).empty()) return TruePredicate();
  Tokenizer tokenizer(text);
  auto tokens = tokenizer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

PredicatePtr TruePredicate() {
  static const PredicatePtr node = std::make_shared<TrueNode>();
  return node;
}

}  // namespace avdb
