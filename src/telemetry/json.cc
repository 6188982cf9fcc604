#include "telemetry/json.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "common/logging.hh"

namespace inpg {

namespace {

const JsonValue kNullValue;
const std::string kNoString;
const JsonValue::Items kNoItems;
const JsonValue::Members kNoMembers;

} // namespace

JsonValue::JsonValue(const JsonValue &o) : kind(o.kind), word(o.word)
{
    switch (kind) {
      case Kind::String:
        word.str = new std::string(*o.word.str);
        break;
      case Kind::Array:
        word.arr = new Items(*o.word.arr);
        break;
      case Kind::Object:
        word.obj = new Members(*o.word.obj);
        break;
      default:
        break;
    }
}

JsonValue::~JsonValue()
{
    switch (kind) {
      case Kind::String:
        delete word.str;
        break;
      case Kind::Array:
        delete word.arr;
        break;
      case Kind::Object:
        delete word.obj;
        break;
      default:
        break;
    }
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind = Kind::Array;
    v.word.arr = new Items();
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind = Kind::Object;
    v.word.obj = new Members();
    return v;
}

JsonValue &
JsonValue::operator[](const std::string &key)
{
    if (kind == Kind::Null)
        *this = object();
    INPG_ASSERT(kind == Kind::Object, "JSON member '%s' of a non-object",
                key.c_str());
    for (auto &kv : *word.obj) {
        if (kv.first == key)
            return kv.second;
    }
    word.obj->emplace_back(key, JsonValue());
    return word.obj->back().second;
}

JsonValue &
JsonValue::append(std::string key, JsonValue v)
{
    if (kind == Kind::Null)
        *this = object();
    INPG_ASSERT(kind == Kind::Object, "JSON member '%s' of a non-object",
                key.c_str());
    return word.obj->emplace_back(std::move(key), std::move(v)).second;
}

void
JsonValue::push(JsonValue v)
{
    if (kind == Kind::Null)
        *this = array();
    INPG_ASSERT(kind == Kind::Array, "JSON push onto a non-array");
    word.arr->push_back(std::move(v));
}

std::size_t
JsonValue::size() const
{
    switch (kind) {
      case Kind::Array:
        return word.arr->size();
      case Kind::Object:
        return word.obj->size();
      default:
        return 0;
    }
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &kv : *word.obj) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    return v ? *v : kNullValue;
}

const JsonValue &
JsonValue::item(std::size_t i) const
{
    if (kind != Kind::Array || i >= word.arr->size())
        return kNullValue;
    return (*word.arr)[i];
}

const std::string &
JsonValue::asString() const
{
    return kind == Kind::String ? *word.str : kNoString;
}

const JsonValue::Members &
JsonValue::members() const
{
    return kind == Kind::Object ? *word.obj : kNoMembers;
}

const JsonValue::Items &
JsonValue::items() const
{
    return kind == Kind::Array ? *word.arr : kNoItems;
}

long long
JsonValue::asInt(long long dflt) const
{
    switch (kind) {
      case Kind::Int:
        return word.i;
      case Kind::Uint:
        return static_cast<long long>(word.u);
      case Kind::Double:
        return static_cast<long long>(word.d);
      default:
        return dflt;
    }
}

std::uint64_t
JsonValue::asUint(std::uint64_t dflt) const
{
    switch (kind) {
      case Kind::Uint:
        return word.u;
      case Kind::Int:
        return word.i < 0 ? dflt : static_cast<std::uint64_t>(word.i);
      case Kind::Double:
        return word.d < 0 ? dflt : static_cast<std::uint64_t>(word.d);
      default:
        return dflt;
    }
}

double
JsonValue::asDouble(double dflt) const
{
    switch (kind) {
      case Kind::Int:
        return static_cast<double>(word.i);
      case Kind::Uint:
        return static_cast<double>(word.u);
      case Kind::Double:
        return word.d;
      default:
        return dflt;
    }
}

std::string
JsonValue::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

void
newline(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    char buf[64];
    switch (kind) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += word.b ? "true" : "false";
        break;
      case Kind::Int:
        std::snprintf(buf, sizeof(buf), "%lld", word.i);
        out += buf;
        break;
      case Kind::Uint:
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(word.u));
        out += buf;
        break;
      case Kind::Double:
        if (std::isfinite(word.d)) {
            std::snprintf(buf, sizeof(buf), "%.17g", word.d);
            out += buf;
        } else {
            // JSON has no inf/nan; null keeps the document loadable.
            out += "null";
        }
        break;
      case Kind::String:
        out += '"';
        out += escape(*word.str);
        out += '"';
        break;
      case Kind::Array: {
        const Items &arr = *word.arr;
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += ',';
            newline(out, indent, depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        if (!arr.empty())
            newline(out, indent, depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        const Members &obj = *word.obj;
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += ',';
            newline(out, indent, depth + 1);
            out += '"';
            out += escape(obj[i].first);
            out += "\":";
            if (indent > 0)
                out += ' ';
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!obj.empty())
            newline(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/**
 * Recursive-descent reader over the byte range [pos, end), at most
 * JsonValue::MAX_PARSE_DEPTH arrays and objects deep. Kept
 * deliberately strict: the only producers are this file's writer and
 * python's json module, neither of which emits extensions.
 */
class JsonReader
{
  public:
    JsonReader(const std::string &text) : text(text) {}

    bool parseDocument(JsonValue &out, std::string &err)
    {
        if (!parseValue(out, err))
            return false;
        skipSpace();
        if (pos != text.size()) {
            fail(err, "trailing characters after document");
            return false;
        }
        return true;
    }

  private:
    void skipSpace()
    {
        while (pos < text.size()) {
            char c = text[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos;
        }
    }

    void fail(std::string &err, const char *what)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " at offset %zu", pos);
        err = std::string(what) + buf;
    }

    bool consume(char c, std::string &err, const char *what)
    {
        skipSpace();
        if (pos >= text.size() || text[pos] != c) {
            fail(err, what);
            return false;
        }
        ++pos;
        return true;
    }

    bool parseValue(JsonValue &out, std::string &err)
    {
        skipSpace();
        if (pos >= text.size()) {
            fail(err, "unexpected end of input");
            return false;
        }
        char c = text[pos];
        switch (c) {
          case '{':
          case '[': {
            // The recursion is bounded so that no input can exhaust
            // the stack; the writer nests at most a few levels.
            if (depth == JsonValue::MAX_PARSE_DEPTH) {
                const std::string what =
                    "nesting deeper than " +
                    std::to_string(JsonValue::MAX_PARSE_DEPTH) + " levels";
                fail(err, what.c_str());
                return false;
            }
            ++depth;
            const bool ok =
                c == '{' ? parseObject(out, err) : parseArray(out, err);
            --depth;
            return ok;
          }
          case '"': {
            std::string s;
            if (!parseString(s, err))
                return false;
            out = JsonValue(std::move(s));
            return true;
          }
          case 't':
            return parseLiteral("true", JsonValue(true), out, err);
          case 'f':
            return parseLiteral("false", JsonValue(false), out, err);
          case 'n':
            return parseLiteral("null", JsonValue(), out, err);
          default:
            return parseNumber(out, err);
        }
    }

    bool parseLiteral(const char *word, JsonValue v, JsonValue &out,
                      std::string &err)
    {
        std::size_t n = std::string(word).size();
        if (text.compare(pos, n, word) != 0) {
            fail(err, "invalid literal");
            return false;
        }
        pos += n;
        out = std::move(v);
        return true;
    }

    bool parseObject(JsonValue &out, std::string &err)
    {
        ++pos; // '{'
        out = JsonValue::object();
        skipSpace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        // The keys read so far: a repeated one is refused where it is
        // read, in linear time whatever the object's size.
        std::unordered_set<std::string> seen;
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key, err))
                return false;
            if (!seen.insert(key).second) {
                fail(err, ("duplicate key \"" + key + "\"").c_str());
                return false;
            }
            if (!consume(':', err, "expected ':' in object"))
                return false;
            JsonValue member;
            if (!parseValue(member, err))
                return false;
            out.append(std::move(key), std::move(member));
            skipSpace();
            if (pos >= text.size()) {
                fail(err, "unterminated object");
                return false;
            }
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            fail(err, "expected ',' or '}' in object");
            return false;
        }
    }

    bool parseArray(JsonValue &out, std::string &err)
    {
        ++pos; // '['
        out = JsonValue::array();
        skipSpace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            JsonValue elem;
            if (!parseValue(elem, err))
                return false;
            out.push(std::move(elem));
            skipSpace();
            if (pos >= text.size()) {
                fail(err, "unterminated array");
                return false;
            }
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return true;
            }
            fail(err, "expected ',' or ']' in array");
            return false;
        }
    }

    bool parseString(std::string &out, std::string &err)
    {
        if (pos >= text.size() || text[pos] != '"') {
            fail(err, "expected string");
            return false;
        }
        ++pos;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            if (pos + 1 >= text.size()) {
                fail(err, "unterminated escape");
                return false;
            }
            char e = text[pos + 1];
            pos += 2;
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos + 4 > text.size()) {
                    fail(err, "truncated \\u escape");
                    return false;
                }
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos + i];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail(err, "bad hex digit in \\u escape");
                        return false;
                    }
                }
                pos += 4;
                // The writer only emits \u00XX for control bytes;
                // encode the general case as UTF-8 anyway.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                fail(err, "unknown escape");
                return false;
            }
        }
        fail(err, "unterminated string");
        return false;
    }

    bool parseNumber(JsonValue &out, std::string &err)
    {
        std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        bool isDouble = false;
        while (pos < text.size()) {
            char c = text[pos];
            if (c >= '0' && c <= '9') {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                isDouble = true;
                ++pos;
            } else {
                break;
            }
        }
        if (pos == start || (text[start] == '-' && pos == start + 1)) {
            pos = start;
            fail(err, "invalid number");
            return false;
        }
        // Strict JSON: no leading zeros ("01"). The writer never
        // emits them, and a lenient read would mask a corrupt ledger
        // line instead of refusing it.
        const std::size_t d0 = text[start] == '-' ? start + 1 : start;
        if (text[d0] == '0' && d0 + 1 < pos && text[d0 + 1] >= '0' &&
            text[d0 + 1] <= '9') {
            pos = start;
            fail(err, "invalid number");
            return false;
        }
        std::string tok = text.substr(start, pos - start);
        if (isDouble) {
            out = JsonValue(std::strtod(tok.c_str(), nullptr));
            return true;
        }
        // Integers keep the writer's signedness split so a document
        // round-trips byte-identically: non-negative -> Uint,
        // negative -> Int. Out-of-range magnitudes fall back to
        // double (the writer never produces them).
        errno = 0;
        if (tok[0] == '-') {
            char *end = nullptr;
            long long v = std::strtoll(tok.c_str(), &end, 10);
            if (errno == ERANGE)
                out = JsonValue(std::strtod(tok.c_str(), nullptr));
            else
                out = JsonValue(v);
        } else {
            char *end = nullptr;
            unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
            if (errno == ERANGE)
                out = JsonValue(std::strtod(tok.c_str(), nullptr));
            else
                out = JsonValue(static_cast<std::uint64_t>(v));
        }
        return true;
    }

    const std::string &text;
    std::size_t pos = 0;
    int depth = 0; // arrays and objects open at pos
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text, std::string *err)
{
    JsonValue out;
    std::string diag;
    JsonReader reader(text);
    if (!reader.parseDocument(out, diag)) {
        if (err)
            *err = diag;
        return JsonValue();
    }
    if (err)
        err->clear();
    return out;
}

} // namespace inpg
