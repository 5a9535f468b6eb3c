#include "engine/find_query.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/string_util.h"

namespace dbpc {

bool PathStep::operator==(const PathStep& other) const {
  return kind == other.kind && name == other.name &&
         qualification == other.qualification &&
         join_target_field == other.join_target_field &&
         join_source_field == other.join_source_field;
}

std::string PathStep::ToString() const {
  std::string out;
  if (kind == Kind::kJoin) {
    out = "JOIN " + name + " THROUGH (" + join_target_field + ", " +
          join_source_field + ")";
  } else {
    out = name;
  }
  if (qualification.has_value()) {
    out += "(";
    out += qualification->ToString();
    out += ")";
  }
  return out;
}

std::string FindQuery::ToString() const {
  std::string out = "FIND(" + target_type + ": " + start;
  for (const PathStep& step : steps) {
    out += ", ";
    out += step.ToString();
  }
  out += ")";
  return out;
}

std::string Retrieval::ToString() const {
  if (sort_on.empty()) return query.ToString();
  return "SORT(" + query.ToString() + ") ON (" + Join(sort_on, ", ") + ")";
}

Status ResolveFindQuery(const Schema& schema, FindQuery* query) {
  // The record type context produced by the previous step; empty when the
  // next step must be the opening system-owned set.
  std::string context;
  bool at_start = true;
  if (!query->starts_at_system()) {
    // Collection start: the caller's collection holds records of the target
    // type of a previous FIND. We cannot know that type statically here, so
    // the first step fixes the context: a record step names it directly, a
    // set step implies its owner type.
    at_start = false;
  }
  for (size_t i = 0; i < query->steps.size(); ++i) {
    PathStep& step = query->steps[i];
    if (step.kind == PathStep::Kind::kJoin) {
      // Su's value join: relate the current entities to an unassociated
      // type through comparable fields.
      if (at_start) {
        return Status::InvalidArgument(
            "path cannot open with a value join; there is nothing to join "
            "from");
      }
      const RecordTypeDef* target = schema.FindRecordType(step.name);
      if (target == nullptr) {
        return Status::NotFound("join target record type " + step.name);
      }
      if (!target->HasField(step.join_target_field)) {
        return Status::NotFound("join field " + step.name + "." +
                                step.join_target_field);
      }
      if (!context.empty()) {
        const RecordTypeDef* source_rec = schema.FindRecordType(context);
        if (source_rec != nullptr &&
            !source_rec->HasField(step.join_source_field)) {
          return Status::NotFound("join field " + context + "." +
                                  step.join_source_field);
        }
      }
      if (step.qualification.has_value()) {
        std::vector<std::string> fields;
        step.qualification->CollectFields(&fields);
        for (const std::string& f : fields) {
          if (!target->HasField(f)) {
            return Status::NotFound("qualification field " + step.name + "." +
                                    f);
          }
        }
      }
      context = target->name;
      continue;
    }
    const SetDef* set = schema.FindSet(step.name);
    const RecordTypeDef* rec = schema.FindRecordType(step.name);
    if (set != nullptr && rec != nullptr) {
      return Status::InvalidArgument("name " + step.name +
                                     " is both a set and a record type");
    }
    if (set == nullptr && rec == nullptr) {
      return Status::NotFound("path step " + step.name +
                              " is neither a set nor a record type");
    }
    if (set != nullptr) {
      if (step.qualification.has_value()) {
        return Status::InvalidArgument("set step " + step.name +
                                       " cannot carry a qualification");
      }
      step.kind = PathStep::Kind::kSet;
      if (at_start) {
        if (!set->system_owned()) {
          return Status::InvalidArgument(
              "path from SYSTEM must open with a system-owned set, not " +
              step.name);
        }
        at_start = false;
      } else if (!context.empty() &&
                 !EqualsIgnoreCase(set->owner, context)) {
        return Status::InvalidArgument("set " + step.name + " is owned by " +
                                       set->owner + ", not by " + context);
      }
      context = set->member;
    } else {
      if (at_start) {
        return Status::InvalidArgument(
            "path from SYSTEM must open with a set, not record " + step.name);
      }
      step.kind = PathStep::Kind::kRecord;
      if (!context.empty() && !EqualsIgnoreCase(rec->name, context)) {
        return Status::InvalidArgument("record step " + step.name +
                                       " does not match path context " +
                                       context);
      }
      context = rec->name;
      if (step.qualification.has_value()) {
        std::vector<std::string> fields;
        step.qualification->CollectFields(&fields);
        for (const std::string& f : fields) {
          if (!rec->HasField(f)) {
            return Status::NotFound("qualification field " + step.name + "." +
                                    f);
          }
        }
      }
    }
  }
  if (context.empty()) {
    return Status::InvalidArgument("FIND path is empty");
  }
  if (!EqualsIgnoreCase(context, query->target_type)) {
    return Status::InvalidArgument("FIND path ends at " + context +
                                   " but targets " + query->target_type);
  }
  return Status::OK();
}

CollectionEnv EmptyCollectionEnv() {
  return [](const std::string& name) -> Result<std::vector<RecordId>> {
    return Status::NotFound("collection variable " + name);
  };
}

namespace {

/// Build side of a hashed value join: answers "does any source value
/// QueryCompare-equal this target value" in O(1), replicating
/// QueryCompare's branch structure exactly — numeric comparison when a
/// native number is involved, display-text comparison otherwise, NaN
/// comparing equal to every number.
class JoinMatcher {
 public:
  explicit JoinMatcher(const std::vector<Value>& sources) {
    for (const Value& v : sources) {
      if (v.is_null()) continue;
      if (v.is_int() || v.is_double()) {
        has_native_ = true;
        double n =
            v.is_int() ? static_cast<double>(v.as_int()) : v.as_double();
        if (std::isnan(n)) {
          has_nan_ = true;
        } else {
          native_keys_.insert(QueryNumericKey(n));
        }
        continue;
      }
      text_keys_.insert(v.as_string());
      std::optional<double> n = QueryNumeric(v);
      if (n.has_value()) {
        // Parseable strings compare numerically against native-number
        // targets (but still textually against string targets).
        if (std::isnan(*n)) {
          has_nan_parseable_ = true;
        } else {
          parseable_keys_.insert(QueryNumericKey(*n));
        }
      }
    }
  }

  bool Matches(const Value& target) const {
    if (target.is_null()) return false;
    if (target.is_int() || target.is_double()) {
      double n = target.is_int() ? static_cast<double>(target.as_int())
                                 : target.as_double();
      // A NaN target compares equal to every numeric-interpretable source.
      if (std::isnan(n)) {
        return has_native_ || has_nan_parseable_ || !parseable_keys_.empty();
      }
      if (has_nan_ || has_nan_parseable_) return true;
      std::string key = QueryNumericKey(n);
      return native_keys_.count(key) > 0 || parseable_keys_.count(key) > 0;
    }
    // String target: text equality against string sources; numeric
    // comparison against native-number sources when the target parses.
    // (Unparseable text never equals a native number's display form.)
    if (text_keys_.count(target.as_string()) > 0) return true;
    std::optional<double> n = QueryNumeric(target);
    if (!n.has_value()) return false;
    if (std::isnan(*n)) return has_native_;
    return has_nan_ || native_keys_.count(QueryNumericKey(*n)) > 0;
  }

 private:
  bool has_native_ = false;         ///< any native int/double source
  bool has_nan_ = false;            ///< a native NaN source
  bool has_nan_parseable_ = false;  ///< a string source parsing to NaN
  std::unordered_set<std::string> native_keys_;
  std::unordered_set<std::string> parseable_keys_;
  std::unordered_set<std::string> text_keys_;
};

/// Index-served superset of the ids in `ids` that can satisfy `pred`, or
/// nullopt to evaluate everything. Skipping an id is only sound when its
/// evaluation could not have raised an error, so this requires every id to
/// be a live `type` record (whose qualification fields were resolved
/// against that type) and every host variable to resolve.
std::optional<std::vector<RecordId>> QualificationCandidates(
    const Database& db, const std::string& type, const Predicate& pred,
    const HostEnv& host_env, const std::vector<RecordId>& ids) {
  if (!db.index_options().enabled || ids.empty()) return std::nullopt;
  for (RecordId id : ids) {
    Result<std::string> t = db.TypeOf(id);
    if (!t.ok() || !EqualsIgnoreCase(*t, type)) return std::nullopt;
  }
  std::vector<std::string> host_vars;
  pred.CollectHostVars(&host_vars);
  std::map<std::string, Value> resolved;
  for (const std::string& v : host_vars) {
    Result<Value> r = host_env(v);
    if (!r.ok()) return std::nullopt;
    resolved[v] = *r;
  }
  std::vector<const Predicate*> conjuncts;
  CollectEqualityConjuncts(pred, &conjuncts);
  std::optional<std::vector<RecordId>> best;
  for (const Predicate* c : conjuncts) {
    const Value& probe = c->operand().kind == Operand::Kind::kHostVar
                             ? resolved[c->operand().host_var]
                             : c->operand().literal;
    std::optional<std::vector<RecordId>> candidates =
        db.ProbeCandidates(type, c->field(), probe);
    if (!candidates.has_value()) continue;
    if (!best.has_value() || candidates->size() < best->size()) {
      best = std::move(candidates);
    }
    if (best->empty()) break;
  }
  return best;
}

}  // namespace

Result<std::vector<RecordId>> EvaluateFind(const Database& db,
                                           const FindQuery& query,
                                           const HostEnv& host_env,
                                           const CollectionEnv& collections) {
  std::vector<RecordId> current;
  bool have_current = false;
  if (!query.starts_at_system()) {
    DBPC_ASSIGN_OR_RETURN(current, collections(query.start));
    have_current = true;
  }
  for (const PathStep& step : query.steps) {
    switch (step.kind) {
      case PathStep::Kind::kUnresolved:
        return Status::InvalidArgument(
            "FIND path not resolved against a schema: " + query.ToString());
      case PathStep::Kind::kSet: {
        std::vector<RecordId> next;
        if (!have_current) {
          next = db.SystemMembers(ToUpper(step.name));
          have_current = true;
        } else {
          for (RecordId owner : current) {
            const std::vector<RecordId>& members =
                db.MembersRef(ToUpper(step.name), owner);
            next.insert(next.end(), members.begin(), members.end());
          }
        }
        current = std::move(next);
        break;
      }
      case PathStep::Kind::kRecord: {
        if (!step.qualification.has_value()) break;
        // Probe an equality conjunct so only plausible records are
        // evaluated; the full qualification still decides membership.
        std::optional<std::vector<RecordId>> candidates =
            QualificationCandidates(db, step.name, *step.qualification,
                                    host_env, current);
        std::vector<RecordId> kept;
        for (RecordId id : current) {
          if (candidates.has_value() &&
              !std::binary_search(candidates->begin(), candidates->end(),
                                  id)) {
            continue;
          }
          DBPC_ASSIGN_OR_RETURN(
              bool keep,
              step.qualification->Evaluate(db.FieldGetter(id), host_env));
          if (keep) kept.push_back(id);
        }
        current = std::move(kept);
        break;
      }
      case PathStep::Kind::kJoin: {
        // Value join: targets whose join field equals some incoming
        // record's source field. Result is deduplicated, first-match
        // (ascending id) order — both access paths below reproduce the
        // matched set and order of the original nested-loop scan.
        std::vector<Value> source_values;
        source_values.reserve(current.size());
        for (RecordId id : current) {
          DBPC_ASSIGN_OR_RETURN(Value v,
                                db.GetField(id, step.join_source_field));
          source_values.push_back(std::move(v));
        }
        std::string target_type = ToUpper(step.name);

        // Access path 1: probe a (lazily built) secondary index per source
        // value and merge the buckets. Bucket membership coincides exactly
        // with QueryCompare equality for accepted probes, so no
        // re-verification pass is needed.
        std::optional<std::vector<RecordId>> matched;
        if (db.EnsureFieldIndex(target_type, step.join_target_field)) {
          std::vector<RecordId> merged;
          bool usable = true;
          for (const Value& v : source_values) {
            if (v.is_null()) continue;  // null joins with nothing
            std::optional<std::vector<RecordId>> bucket =
                db.ProbeIndex(target_type, step.join_target_field, v);
            if (!bucket.has_value()) {
              usable = false;
              break;
            }
            merged.insert(merged.end(), bucket->begin(), bucket->end());
          }
          if (usable) {
            std::sort(merged.begin(), merged.end());
            merged.erase(std::unique(merged.begin(), merged.end()),
                         merged.end());
            matched = std::move(merged);
          }
        }

        std::vector<RecordId> joined;
        if (matched.has_value()) {
          for (RecordId candidate : *matched) {
            if (step.qualification.has_value()) {
              DBPC_ASSIGN_OR_RETURN(bool keep,
                                    step.qualification->Evaluate(
                                        db.FieldGetter(candidate), host_env));
              if (!keep) continue;
            }
            joined.push_back(candidate);
          }
        } else {
          // Access path 2: one scan of the target type with a hashed
          // build side replacing the inner comparison loop.
          JoinMatcher matcher(source_values);
          for (RecordId candidate : db.AllOfType(target_type)) {
            DBPC_ASSIGN_OR_RETURN(
                Value target_value,
                db.GetField(candidate, step.join_target_field));
            if (!matcher.Matches(target_value)) continue;
            if (step.qualification.has_value()) {
              DBPC_ASSIGN_OR_RETURN(bool keep,
                                    step.qualification->Evaluate(
                                        db.FieldGetter(candidate), host_env));
              if (!keep) continue;
            }
            joined.push_back(candidate);
          }
        }
        current = std::move(joined);
        have_current = true;
        break;
      }
    }
  }
  return current;
}

Result<std::vector<RecordId>> SortRecords(const Database& db,
                                          std::vector<RecordId> ids,
                                          const std::vector<std::string>& on) {
  // Materialize sort keys first so comparator cannot fail mid-sort: row r's
  // keys are keys[r * width, (r + 1) * width), and the stable sort permutes
  // row numbers, so ties keep retrieval order.
  const size_t width = on.size();
  std::vector<Value> keys;
  keys.reserve(ids.size() * width);
  for (RecordId id : ids) {
    for (const std::string& field : on) {
      DBPC_ASSIGN_OR_RETURN(Value v, db.GetField(id, field));
      keys.push_back(std::move(v));
    }
  }
  std::vector<size_t> rows(ids.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    const Value* ka = keys.data() + a * width;
    const Value* kb = keys.data() + b * width;
    for (size_t i = 0; i < width; ++i) {
      int cmp = ka[i].Compare(kb[i]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  std::vector<RecordId> out;
  out.reserve(rows.size());
  for (size_t r : rows) out.push_back(ids[r]);
  return out;
}

Result<std::vector<RecordId>> EvaluateRetrieval(
    const Database& db, const Retrieval& retrieval, const HostEnv& host_env,
    const CollectionEnv& collections) {
  DBPC_ASSIGN_OR_RETURN(
      std::vector<RecordId> ids,
      EvaluateFind(db, retrieval.query, host_env, collections));
  if (retrieval.sort_on.empty()) return ids;
  return SortRecords(db, std::move(ids), retrieval.sort_on);
}

namespace {

Result<Operand> ParseOperand(TokenCursor* cur) {
  const Token& t = cur->Peek();
  switch (t.kind) {
    case TokenKind::kInteger:
      cur->Next();
      return Operand::Literal(Value::Int(t.int_value));
    case TokenKind::kFloat:
      cur->Next();
      return Operand::Literal(Value::Double(t.float_value));
    case TokenKind::kString:
      cur->Next();
      return Operand::Literal(Value::String(t.text));
    case TokenKind::kPunct:
      if (t.text == ":") {
        cur->Next();
        DBPC_ASSIGN_OR_RETURN(std::string name,
                              cur->TakeIdentifier("host variable name"));
        return Operand::HostVar(std::move(name));
      }
      if (t.text == "-") {
        cur->Next();
        const Token& num = cur->Peek();
        if (num.kind == TokenKind::kInteger) {
          cur->Next();
          return Operand::Literal(Value::Int(-num.int_value));
        }
        if (num.kind == TokenKind::kFloat) {
          cur->Next();
          return Operand::Literal(Value::Double(-num.float_value));
        }
        return cur->ErrorHere("expected number after '-'");
      }
      break;
    case TokenKind::kIdentifier:
      if (t.text == "NULL") {
        cur->Next();
        return Operand::Literal(Value::Null());
      }
      break;
    default:
      break;
  }
  return cur->ErrorHere("expected literal or :host-variable");
}

Result<Predicate> ParseComparison(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(std::string field, cur->TakeIdentifier("field name"));
  if (cur->ConsumeIdent("IS")) {
    bool negated = cur->ConsumeIdent("NOT");
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("NULL"));
    return Predicate::Compare(
        std::move(field), negated ? CompareOp::kIsNotNull : CompareOp::kIsNull,
        Operand::Literal(Value::Null()));
  }
  CompareOp op;
  const Token& t = cur->Peek();
  if (t.IsPunct("=")) {
    op = CompareOp::kEq;
  } else if (t.IsPunct("<>")) {
    op = CompareOp::kNe;
  } else if (t.IsPunct("<")) {
    op = CompareOp::kLt;
  } else if (t.IsPunct("<=")) {
    op = CompareOp::kLe;
  } else if (t.IsPunct(">")) {
    op = CompareOp::kGt;
  } else if (t.IsPunct(">=")) {
    op = CompareOp::kGe;
  } else {
    return cur->ErrorHere("expected comparison operator");
  }
  cur->Next();
  DBPC_ASSIGN_OR_RETURN(Operand rhs, ParseOperand(cur));
  return Predicate::Compare(std::move(field), op, std::move(rhs));
}

Result<Predicate> ParseOrExpr(TokenCursor* cur);

Result<Predicate> ParseUnary(TokenCursor* cur) {
  if (cur->ConsumeIdent("NOT")) {
    DBPC_ASSIGN_OR_RETURN(Predicate inner, ParseUnary(cur));
    return Predicate::Not(std::move(inner));
  }
  if (cur->ConsumePunct("(")) {
    DBPC_ASSIGN_OR_RETURN(Predicate inner, ParseOrExpr(cur));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
    return inner;
  }
  return ParseComparison(cur);
}

Result<Predicate> ParseAndExpr(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(Predicate lhs, ParseUnary(cur));
  while (cur->ConsumeIdent("AND")) {
    DBPC_ASSIGN_OR_RETURN(Predicate rhs, ParseUnary(cur));
    lhs = Predicate::And(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<Predicate> ParseOrExpr(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(Predicate lhs, ParseAndExpr(cur));
  while (cur->ConsumeIdent("OR")) {
    DBPC_ASSIGN_OR_RETURN(Predicate rhs, ParseAndExpr(cur));
    lhs = Predicate::Or(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

}  // namespace

Result<Predicate> ParsePredicate(TokenCursor* cur) { return ParseOrExpr(cur); }

Result<FindQuery> ParseFindQuery(TokenCursor* cur) {
  DBPC_RETURN_IF_ERROR(cur->ExpectIdent("FIND"));
  DBPC_RETURN_IF_ERROR(cur->ExpectPunct("("));
  FindQuery query;
  DBPC_ASSIGN_OR_RETURN(query.target_type,
                        cur->TakeIdentifier("target record type"));
  DBPC_RETURN_IF_ERROR(cur->ExpectPunct(":"));
  DBPC_ASSIGN_OR_RETURN(query.start,
                        cur->TakeIdentifier("SYSTEM or collection name"));
  while (cur->ConsumePunct(",")) {
    PathStep step;
    if (cur->ConsumeIdent("JOIN")) {
      step.kind = PathStep::Kind::kJoin;
      DBPC_ASSIGN_OR_RETURN(step.name,
                            cur->TakeIdentifier("join target type"));
      DBPC_RETURN_IF_ERROR(cur->ExpectIdent("THROUGH"));
      DBPC_RETURN_IF_ERROR(cur->ExpectPunct("("));
      DBPC_ASSIGN_OR_RETURN(step.join_target_field,
                            cur->TakeIdentifier("join target field"));
      DBPC_RETURN_IF_ERROR(cur->ExpectPunct(","));
      DBPC_ASSIGN_OR_RETURN(step.join_source_field,
                            cur->TakeIdentifier("join source field"));
      DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
    } else {
      DBPC_ASSIGN_OR_RETURN(step.name, cur->TakeIdentifier("path step name"));
    }
    if (cur->ConsumePunct("(")) {
      DBPC_ASSIGN_OR_RETURN(Predicate pred, ParsePredicate(cur));
      DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
      step.qualification = std::move(pred);
    }
    query.steps.push_back(std::move(step));
  }
  DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
  return query;
}

Result<Retrieval> ParseRetrieval(TokenCursor* cur) {
  Retrieval retrieval;
  if (cur->Peek().IsIdent("SORT")) {
    cur->Next();
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct("("));
    DBPC_ASSIGN_OR_RETURN(retrieval.query, ParseFindQuery(cur));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("ON"));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct("("));
    do {
      DBPC_ASSIGN_OR_RETURN(std::string field,
                            cur->TakeIdentifier("sort field"));
      retrieval.sort_on.push_back(std::move(field));
    } while (cur->ConsumePunct(","));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
    return retrieval;
  }
  DBPC_ASSIGN_OR_RETURN(retrieval.query, ParseFindQuery(cur));
  return retrieval;
}

Result<FindQuery> ParseFindQuery(const std::string& text) {
  DBPC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  TokenCursor cur(std::move(tokens));
  DBPC_ASSIGN_OR_RETURN(FindQuery query, ParseFindQuery(&cur));
  if (!cur.AtEnd()) return cur.ErrorHere("trailing input after FIND");
  return query;
}

Result<Retrieval> ParseRetrieval(const std::string& text) {
  DBPC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  TokenCursor cur(std::move(tokens));
  DBPC_ASSIGN_OR_RETURN(Retrieval retrieval, ParseRetrieval(&cur));
  if (!cur.AtEnd()) return cur.ErrorHere("trailing input after retrieval");
  return retrieval;
}

}  // namespace dbpc
