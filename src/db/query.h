#ifndef AVDB_DB_QUERY_H_
#define AVDB_DB_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "db/object.h"

namespace avdb {

/// Comparison operators of the predicate language.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

std::string_view CompareOpName(CompareOp op);

/// A parsed predicate over one class's scalar attributes — the `where`
/// clause of the paper's pseudo-code:
///
///   select SimpleNewscast where (title = "60 Minutes" and
///                                whenBroadcast = someDate)
///
/// Grammar (case-insensitive keywords):
///   expr    := orExpr
///   orExpr  := andExpr ( 'or' andExpr )*
///   andExpr := unary ( 'and' unary )*
///   unary   := 'not' unary | '(' expr ')' | comparison
///   comparison := IDENT OP literal
///   OP      := '=' '!=' '<' '<=' '>' '>=' 'contains'
///   literal := quoted string | integer
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Evaluates against an object; unset attributes make comparisons false.
  virtual bool Matches(const DbObject& object) const = 0;

  /// Re-rendered predicate text (canonical form, for diagnostics).
  virtual std::string ToString() const = 0;

  /// If this predicate (or some conjunct of it) pins `attribute = value`,
  /// reports the attribute and value so an equality index can prefilter.
  /// Returns false when no such conjunct exists.
  virtual bool EqualityPin(std::string* attribute,
                           ScalarValue* value) const = 0;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// Most terms one predicate may join with `and`/`or`, counted over the
/// whole text. Each connective adds a level to the predicate tree, and
/// evaluating or destroying the tree recurses once per level.
inline constexpr int kMaxPredicateTerms = 4096;

/// Longest predicate text ParsePredicate accepts, checked before a single
/// token is built: room for kMaxPredicateTerms terms of 128 bytes each, so
/// an oversized text cannot grow the token list past a bounded size.
inline constexpr size_t kMaxPredicateBytes = 128 * kMaxPredicateTerms;

/// Parses a predicate. Returns InvalidArgument with a position-annotated
/// message on syntax errors, on too-deep `not`/`(` nesting, on more than
/// kMaxPredicateTerms `and`/`or` terms and on a text longer than
/// kMaxPredicateBytes.
Result<PredicatePtr> ParsePredicate(const std::string& text);

/// Always-true predicate (an empty `where` clause).
PredicatePtr TruePredicate();

}  // namespace avdb

#endif  // AVDB_DB_QUERY_H_
