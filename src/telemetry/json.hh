/**
 * @file
 * Minimal JSON document model for telemetry exports and the experiment
 * ledger (stats snapshots, Chrome-trace files, RunRecords). The writer
 * came first; the reader was added for `inpg_report`, which consumes
 * the ledgers the simulator emits.
 *
 * Object keys keep insertion order so snapshots diff cleanly across
 * runs; numbers are emitted with enough precision to round-trip, and
 * parse() preserves the emitted forms (non-negative integers stay
 * unsigned, doubles re-print identically under %.17g) so that
 * parse(dump(x)).dump() == dump(x) for any document this writer
 * produced.
 */

#ifndef INPG_TELEMETRY_JSON_HH
#define INPG_TELEMETRY_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace inpg {

/**
 * One JSON value (null / bool / number / string / array / object), 16
 * bytes: a kind tag and one 8-byte word. The word holds a bool or a
 * number inline, or owns the heap string, element vector or member
 * vector. Copies are deep; a moved-from value is Null.
 */
class JsonValue
{
  public:
    enum class Kind {
        Null,
        Bool,
        Int,
        Uint,
        Double,
        String,
        Array,
        Object,
    };

    using Items = std::vector<JsonValue>;
    using Members = std::vector<std::pair<std::string, JsonValue>>;

    JsonValue() : kind(Kind::Null) { word.u = 0; }
    JsonValue(bool v) : kind(Kind::Bool) { word.b = v; }
    JsonValue(int v) : kind(Kind::Int) { word.i = v; }
    JsonValue(long long v) : kind(Kind::Int) { word.i = v; }
    JsonValue(std::uint64_t v) : kind(Kind::Uint) { word.u = v; }
    JsonValue(double v) : kind(Kind::Double) { word.d = v; }
    JsonValue(const char *v) : JsonValue(std::string(v)) {}
    JsonValue(std::string v) : kind(Kind::String)
    {
        word.str = new std::string(std::move(v));
    }

    JsonValue(const JsonValue &o);

    JsonValue(JsonValue &&o) noexcept : kind(o.kind), word(o.word)
    {
        o.kind = Kind::Null;
    }

    /** Copy or move assignment; copy-and-swap makes self-assignment safe. */
    JsonValue &operator=(JsonValue o) noexcept
    {
        std::swap(kind, o.kind);
        std::swap(word, o.word);
        return *this;
    }

    ~JsonValue();

    /** Empty array value. */
    static JsonValue array();

    /** Empty object value. */
    static JsonValue object();

    /**
     * Parse one JSON document. On failure returns a Null value and,
     * when @p err is non-null, stores a one-line diagnostic with the
     * byte offset of the problem. Trailing whitespace is permitted;
     * trailing garbage is an error, and so is nesting deeper than
     * MAX_PARSE_DEPTH arrays and objects.
     */
    static JsonValue parse(const std::string &text,
                           std::string *err = nullptr);

    /** Deepest array/object nesting parse() accepts. */
    static constexpr int MAX_PARSE_DEPTH = 256;

    Kind type() const { return kind; }

    bool isNull() const { return kind == Kind::Null; }

    /**
     * Member access on an object (created on first use); converts a
     * Null value into an object, so `doc["a"]["b"] = 1` just works.
     * Any other kind is a caller bug and panics.
     */
    JsonValue &operator[](const std::string &key);

    /**
     * Add a member without looking the key up (converts a Null value
     * into an object): O(1), for builders whose keys are distinct by
     * construction. A repeated key would make the object malformed.
     */
    JsonValue &append(std::string key, JsonValue v);

    /**
     * Append to an array (converts a Null value into an array; any
     * other non-array kind panics).
     */
    void push(JsonValue v);

    std::size_t size() const;

    /** Object lookup without insertion; nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** True when an object has the key. */
    bool contains(const std::string &key) const
    {
        return find(key) != nullptr;
    }

    /**
     * Read-only member access; returns a shared Null value when the
     * key is absent or this is not an object, so lookups chain:
     * `doc.at("a").at("b").asUint()`.
     */
    const JsonValue &at(const std::string &key) const;

    /** Read-only array element; shared Null when out of range. */
    const JsonValue &item(std::size_t i) const;

    bool asBool(bool dflt = false) const
    {
        return kind == Kind::Bool ? word.b : dflt;
    }

    long long asInt(long long dflt = 0) const;

    std::uint64_t asUint(std::uint64_t dflt = 0) const;

    double asDouble(double dflt = 0.0) const;

    /** The string (empty unless a string). */
    const std::string &asString() const;

    /** Object members in insertion order (empty unless an object). */
    const Members &members() const;

    /** Array elements (empty unless an array). */
    const Items &items() const;

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** JSON string escaping (exposed for streaming writers). */
    static std::string escape(const std::string &s);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    /** The one payload word; `kind` names the live member. */
    union Word {
        bool b;
        long long i;
        std::uint64_t u;
        double d;
        std::string *str;
        Items *arr;
        Members *obj;
    };

    Kind kind;
    Word word;
};

static_assert(sizeof(JsonValue) == 16,
              "JsonValue is a kind tag plus one 8-byte word");

} // namespace inpg

#endif // INPG_TELEMETRY_JSON_HH
