/**
 * @file
 * Flat key=value configuration store.
 *
 * Examples and benches accept "key=value" command line overrides and
 * optional config files with one "key = value" pair per line ('#' starts
 * a comment). The harness maps keys onto SystemConfig fields.
 */

#ifndef INPG_COMMON_CONFIG_HH
#define INPG_COMMON_CONFIG_HH

#include <map>
#include <string>
#include <vector>

namespace inpg {

/** String-keyed configuration with typed, defaulted getters. */
class Config
{
  public:
    Config() = default;

    /** Parse "key = value" lines from a string; later keys win. */
    void loadString(const std::string &text);

    /** Parse a config file; throws FatalError if unreadable. */
    void loadFile(const std::string &path);

    /**
     * Strict variant: every key in the file must appear in `known`,
     * as for the strict loadArgs().
     */
    void loadFile(const std::string &path,
                  const std::vector<std::string> &known);

    /**
     * Apply argv-style overrides. Three spellings are accepted and
     * behave identically:
     *
     *   key=value      classic assignment
     *   --key=value    GNU '=' form
     *   --key value    GNU space form (the next token is the value
     *                  unless it is itself a flag or an assignment)
     *
     * A dashed flag with no value ("--csv") sets "1", so boolean
     * switches read naturally. Dashes inside key names map to
     * underscores ("--trace-out" == "trace_out"). Tokens matching no
     * form are ignored; use the `known` overload to reject them.
     */
    void loadArgs(int argc, const char *const *argv);

    /**
     * Strict variant: every parsed key must appear in `known` and
     * every token must match one of the accepted forms; anything else
     * is fatal. Drivers pass their full key list so typos fail loudly
     * instead of silently running the default configuration.
     */
    void loadArgs(int argc, const char *const *argv,
                  const std::vector<std::string> &known);

    /** Set a single key. */
    void set(const std::string &key, const std::string &value);

    /** True if the key is present. */
    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    long long getInt(const std::string &key, long long fallback = 0) const;
    double getDouble(const std::string &key, double fallback = 0.0) const;
    bool getBool(const std::string &key, bool fallback = false) const;

  private:
    void parseString(const std::string &text,
                     const std::vector<std::string> *known);
    void parseArgs(int argc, const char *const *argv,
                   const std::vector<std::string> *known);

    std::map<std::string, std::string> values;
};

} // namespace inpg

#endif // INPG_COMMON_CONFIG_HH
