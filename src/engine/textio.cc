#include "engine/textio.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <unordered_map>

#include "common/lexer.h"
#include "common/string_util.h"

namespace dbpc {

Result<std::vector<std::string>> OwnerFirstTypes(const Schema& schema) {
  std::vector<std::string> types;
  std::map<std::string, int> indegree;
  for (const RecordTypeDef& r : schema.record_types()) {
    types.push_back(ToUpper(r.name));
    indegree[ToUpper(r.name)] = 0;
  }
  std::multimap<std::string, std::string> edges;  // owner -> member
  for (const SetDef& s : schema.sets()) {
    // Self-sets impose no order between types.
    if (s.system_owned() || EqualsIgnoreCase(s.owner, s.member)) continue;
    edges.emplace(ToUpper(s.owner), ToUpper(s.member));
    ++indegree[ToUpper(s.member)];
  }
  std::vector<std::string> order;
  std::vector<std::string> ready;
  ready.reserve(types.size());
  for (const std::string& t : types) {
    if (indegree[t] == 0) ready.push_back(t);
  }
  // Kahn's algorithm with an index cursor: erasing the front of `ready`
  // per pop is quadratic on wide schemas.
  for (size_t next = 0; next < ready.size(); ++next) {
    const std::string t = ready[next];  // by value: push_back reallocates
    order.push_back(t);
    auto [lo, hi] = edges.equal_range(t);
    for (auto it = lo; it != hi; ++it) {
      if (--indegree[it->second] == 0) ready.push_back(it->second);
    }
  }
  if (order.size() != types.size()) {
    return Status::Unsupported("cyclic owner/member graph in schema " +
                               schema.name());
  }
  return order;
}

std::vector<RecordId> ChronologicalOrder(
    const Database& db, const std::string& type,
    const std::vector<const SetDef*>& sets) {
  std::vector<RecordId> all = db.AllOfType(type);
  std::vector<const std::vector<RecordId>*> occurrences;
  bool ascending = true;
  for (const SetDef* set : sets) {
    const std::string name = ToUpper(set->name);
    std::vector<RecordId> owners =
        set->system_owned() ? std::vector<RecordId>{kSystemOwner}
                            : db.AllOfType(ToUpper(set->owner));
    for (RecordId owner : owners) {
      const std::vector<RecordId>& members = db.MembersRef(name, owner);
      if (members.size() < 2) continue;
      occurrences.push_back(&members);
      ascending = ascending && std::is_sorted(members.begin(), members.end());
    }
  }
  // Every edge then points to a higher id, so id order is the sort below.
  if (ascending) return all;
  std::unordered_map<RecordId, size_t> position;  // id -> index in `all`
  position.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) position.emplace(all[i], i);
  std::vector<std::vector<size_t>> successors(all.size());
  std::vector<size_t> indegree(all.size(), 0);
  for (const std::vector<RecordId>* members : occurrences) {
    // A member of another type (a raw-store link) orders nothing.
    std::optional<size_t> prev;
    for (RecordId m : *members) {
      auto it = position.find(m);
      if (it == position.end()) continue;
      if (prev.has_value()) {
        successors[*prev].push_back(it->second);
        ++indegree[it->second];
      }
      prev = it->second;
    }
  }
  // Kahn's algorithm, smallest id first: `all` ascends, so index order is
  // id order.
  std::priority_queue<size_t, std::vector<size_t>, std::greater<size_t>> ready;
  for (size_t i = 0; i < all.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<RecordId> ordered;
  ordered.reserve(all.size());
  while (!ready.empty()) {
    size_t i = ready.top();
    ready.pop();
    ordered.push_back(all[i]);
    for (size_t next : successors[i]) {
      if (--indegree[next] == 0) ready.push(next);
    }
  }
  // Conflicting chronological orders (only reachable through MANUAL
  // connects made in opposing sequences) leave records whose predecessors
  // never all came out; no single emission order can reproduce both, so
  // those follow in storage order.
  for (size_t i = 0; i < all.size(); ++i) {
    if (indegree[i] > 0) ordered.push_back(all[i]);
  }
  return ordered;
}

Result<std::string> DumpDatabaseText(const Database& db) {
  std::string out = "DATABASE " + db.schema().name() + ".\n";
  DBPC_ASSIGN_OR_RETURN(std::vector<std::string> types,
                        OwnerFirstTypes(db.schema()));
  std::map<RecordId, size_t> seq;
  for (const std::string& type : types) {
    std::vector<const SetDef*> chronological;
    for (const SetDef* s : db.schema().SetsWithMember(type)) {
      if (s->ordering == SetOrdering::kChronological) {
        chronological.push_back(s);
      }
    }
    for (RecordId id : ChronologicalOrder(db, type, chronological)) {
      size_t n = seq.size() + 1;
      seq[id] = n;
      const StoredRecord* rec = db.raw_store().Get(id);
      out += "RECORD " + rec->type + " " + std::to_string(n) + " (";
      bool first = true;
      for (const auto& [field, value] : rec->fields) {
        if (value.is_null()) continue;
        if (!first) out += ", ";
        first = false;
        out += field + " = " + value.ToLiteral();
      }
      out += ")";
      for (const SetDef& set : db.schema().sets()) {
        if (set.system_owned()) continue;
        if (!EqualsIgnoreCase(set.member, rec->type)) continue;
        RecordId owner = db.OwnerOf(set.name, id);
        if (owner == 0) continue;
        auto it = seq.find(owner);
        if (it == seq.end()) continue;  // owner not dumped (shouldn't happen)
        out += " IN " + ToUpper(set.name) + " " + std::to_string(it->second);
      }
      out += ".\n";
    }
  }
  out += "END DATABASE.\n";
  return out;
}

Result<Database> LoadDatabaseText(const Schema& schema,
                                  const std::string& text) {
  DBPC_ASSIGN_OR_RETURN(Database db, Database::Create(schema));
  DBPC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  TokenCursor cur(std::move(tokens));
  DBPC_RETURN_IF_ERROR(cur.ExpectIdent("DATABASE"));
  DBPC_RETURN_IF_ERROR(cur.TakeIdentifier("schema name").status());
  DBPC_RETURN_IF_ERROR(cur.ExpectPunct("."));

  std::map<int64_t, RecordId> seq_to_id;
  while (cur.ConsumeIdent("RECORD")) {
    StoreRequest request;
    DBPC_ASSIGN_OR_RETURN(request.type, cur.TakeIdentifier("record type"));
    DBPC_ASSIGN_OR_RETURN(int64_t seq, cur.TakeInteger("sequence number"));
    DBPC_RETURN_IF_ERROR(cur.ExpectPunct("("));
    if (!cur.Peek().IsPunct(")")) {
      do {
        DBPC_ASSIGN_OR_RETURN(std::string field,
                              cur.TakeIdentifier("field name"));
        DBPC_RETURN_IF_ERROR(cur.ExpectPunct("="));
        const Token& t = cur.Peek();
        Value value;
        switch (t.kind) {
          case TokenKind::kInteger:
            value = Value::Int(t.int_value);
            cur.Next();
            break;
          case TokenKind::kFloat:
            value = Value::Double(t.float_value);
            cur.Next();
            break;
          case TokenKind::kString:
            value = Value::String(t.text);
            cur.Next();
            break;
          case TokenKind::kPunct:
            if (t.text == "-") {
              cur.Next();
              const Token& num = cur.Peek();
              if (num.kind == TokenKind::kInteger) {
                value = Value::Int(-num.int_value);
              } else if (num.kind == TokenKind::kFloat) {
                value = Value::Double(-num.float_value);
              } else {
                return cur.ErrorHere("expected number after '-'");
              }
              cur.Next();
              break;
            }
            return cur.ErrorHere("expected literal");
          case TokenKind::kIdentifier:
            if (t.text == "NULL") {
              cur.Next();
              break;
            }
            return cur.ErrorHere("expected literal");
          default:
            return cur.ErrorHere("expected literal");
        }
        request.fields[ToUpper(field)] = std::move(value);
      } while (cur.ConsumePunct(","));
    }
    DBPC_RETURN_IF_ERROR(cur.ExpectPunct(")"));
    while (cur.ConsumeIdent("IN")) {
      DBPC_ASSIGN_OR_RETURN(std::string set_name,
                            cur.TakeIdentifier("set name"));
      DBPC_ASSIGN_OR_RETURN(int64_t owner_seq,
                            cur.TakeInteger("owner sequence number"));
      auto it = seq_to_id.find(owner_seq);
      if (it == seq_to_id.end()) {
        return Status::ParseError("record " + std::to_string(seq) +
                                  " references owner " +
                                  std::to_string(owner_seq) +
                                  " which has not been loaded yet");
      }
      request.connect[ToUpper(set_name)] = it->second;
    }
    DBPC_RETURN_IF_ERROR(cur.ExpectPunct("."));
    Result<RecordId> id = db.StoreRecord(request);
    if (!id.ok()) {
      return Status(id.status().code(),
                    "loading record " + std::to_string(seq) + ": " +
                        id.status().message());
    }
    seq_to_id[seq] = *id;
  }
  DBPC_RETURN_IF_ERROR(cur.ExpectIdent("END"));
  DBPC_RETURN_IF_ERROR(cur.ExpectIdent("DATABASE"));
  DBPC_RETURN_IF_ERROR(cur.ExpectPunct("."));
  if (!cur.AtEnd()) return cur.ErrorHere("trailing input after END DATABASE");
  return db;
}

}  // namespace dbpc
