#include "common/config.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace inpg {

namespace {

/** "--trace-out" -> "trace_out". */
std::string
normalizeKey(std::string key)
{
    key.erase(0, key.find_first_not_of('-'));
    for (char &c : key)
        if (c == '-')
            c = '_';
    return key;
}

/**
 * True when a token cannot be the value of a preceding space-form
 * flag: another dashed flag or an assignment. A lone "-5" is a value
 * (negative numbers stay usable).
 */
bool
flagLike(const std::string &token)
{
    return startsWith(token, "--") ||
           token.find('=') != std::string::npos;
}

void
checkKnown(const std::string &key, const std::string &token,
           const std::vector<std::string> *known)
{
    if (!known)
        return;
    for (const auto &k : *known)
        if (k == key)
            return;
    fatal("unknown key '%s' in '%s'", key.c_str(), token.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace

void
Config::loadString(const std::string &text)
{
    parseString(text, nullptr);
}

void
Config::loadFile(const std::string &path)
{
    parseString(readFile(path), nullptr);
}

void
Config::loadFile(const std::string &path,
                 const std::vector<std::string> &known)
{
    parseString(readFile(path), &known);
}

void
Config::parseString(const std::string &text,
                    const std::vector<std::string> *known)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config line without '=': '%s'", line.c_str());
        const std::string key = trim(line.substr(0, eq));
        checkKnown(key, line, known);
        set(key, trim(line.substr(eq + 1)));
    }
}

void
Config::loadArgs(int argc, const char *const *argv)
{
    parseArgs(argc, argv, nullptr);
}

void
Config::loadArgs(int argc, const char *const *argv,
                 const std::vector<std::string> &known)
{
    parseArgs(argc, argv, &known);
}

void
Config::parseArgs(int argc, const char *const *argv,
                  const std::vector<std::string> *known)
{
    for (int i = 1; i < argc; ++i) {
        const std::string token = trim(argv[i]);
        const auto eq = token.find('=');
        if (eq != std::string::npos) {
            // "key=value" or "--key=value".
            const std::string key = normalizeKey(trim(token.substr(0, eq)));
            checkKnown(key, token, known);
            set(key, trim(token.substr(eq + 1)));
            continue;
        }
        if (startsWith(token, "--")) {
            const std::string key = normalizeKey(token);
            checkKnown(key, token, known);
            // Space form pairs with the next token; a trailing or
            // flag-followed switch is boolean.
            if (i + 1 < argc && !flagLike(trim(argv[i + 1]))) {
                set(key, trim(argv[++i]));
            } else {
                set(key, "1");
            }
            continue;
        }
        // Positional tokens are tolerated in lenient mode only.
        if (known)
            fatal("unknown argument '%s'", token.c_str());
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    if (key.empty())
        fatal("empty config key");
    values[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return values.count(key) > 0;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
}

long long
Config::getInt(const std::string &key, long long fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : parseInt(it->second);
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : parseDouble(it->second);
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : parseBool(it->second);
}

} // namespace inpg
