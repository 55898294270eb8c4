#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace crono::obs {

// ----------------------------------------------------------- JsonWriter

void
JsonWriter::comma()
{
    if (afterKey_) {
        afterKey_ = false;
        return; // value completes a "key": pair, no comma
    }
    if (!first_.empty()) {
        if (first_.back()) {
            first_.back() = false;
        } else {
            out_ += ',';
        }
    }
}

void
JsonWriter::escaped(std::string_view s)
{
    out_ += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out_ += "\\\"";
            break;
          case '\\':
            out_ += "\\\\";
            break;
          case '\n':
            out_ += "\\n";
            break;
          case '\r':
            out_ += "\\r";
            break;
          case '\t':
            out_ += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out_ += buf;
            } else {
                out_ += c;
            }
        }
    }
    out_ += '"';
}

JsonWriter&
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    first_.push_back(true);
    return *this;
}

JsonWriter&
JsonWriter::endObject()
{
    first_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter&
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    first_.push_back(true);
    return *this;
}

JsonWriter&
JsonWriter::endArray()
{
    first_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter&
JsonWriter::key(std::string_view k)
{
    comma();
    escaped(k);
    out_ += ':';
    afterKey_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(std::string_view v)
{
    comma();
    escaped(v);
    return *this;
}

JsonWriter&
JsonWriter::value(const char* v)
{
    return value(std::string_view(v));
}

JsonWriter&
JsonWriter::value(double v)
{
    comma();
    if (!std::isfinite(v)) {
        v = 0.0; // "nan"/"inf" are not JSON
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::value(std::uint64_t v)
{
    comma();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::value(std::int64_t v)
{
    comma();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter&
JsonWriter::value(unsigned v)
{
    return value(static_cast<std::uint64_t>(v));
}

JsonWriter&
JsonWriter::value(bool v)
{
    comma();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter&
JsonWriter::null()
{
    comma();
    out_ += "null";
    return *this;
}

// --------------------------------------------------------------- parser

namespace json {

const Value*
Value::find(std::string_view key) const
{
    if (kind != Kind::object) {
        return nullptr;
    }
    for (const auto& [k, v] : obj) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

std::uint64_t
Value::asU64() const
{
    if (kind != Kind::number || num < 0) {
        return 0;
    }
    return static_cast<std::uint64_t>(num);
}

namespace {

struct Parser {
    std::string_view text;
    std::size_t pos = 0;
    std::string err{};

    bool
    fail(const char* what)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s at byte %zu", what, pos);
        err = buf;
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char* lit)
    {
        const std::size_t n = std::strlen(lit);
        if (text.compare(pos, n, lit) == 0) {
            pos += n;
            return true;
        }
        return fail("bad literal");
    }

    bool
    parseString(std::string& out)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"') {
            return fail("expected string");
        }
        ++pos;
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"') {
                return true;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size()) {
                break;
            }
            const char esc = text[pos++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos + 4 > text.size()) {
                    return fail("bad \\u escape");
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') {
                        code |= static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        return fail("bad \\u escape");
                    }
                }
                // The exporters only escape control characters, so a
                // one-byte mapping is enough; other code points pass
                // through UTF-8 unescaped.
                out += static_cast<char>(code & 0xff);
                break;
              }
              default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(Value& out)
    {
        skipWs();
        if (pos >= text.size()) {
            return fail("unexpected end");
        }
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out.kind = Value::Kind::object;
            skipWs();
            if (consume('}')) {
                return true;
            }
            for (;;) {
                std::string key;
                if (!parseString(key)) {
                    return false;
                }
                if (!consume(':')) {
                    return fail("expected ':'");
                }
                Value v;
                if (!parseValue(v)) {
                    return false;
                }
                out.obj.emplace_back(std::move(key), std::move(v));
                if (consume(',')) {
                    continue;
                }
                if (consume('}')) {
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out.kind = Value::Kind::array;
            skipWs();
            if (consume(']')) {
                return true;
            }
            for (;;) {
                Value v;
                if (!parseValue(v)) {
                    return false;
                }
                out.arr.push_back(std::move(v));
                if (consume(',')) {
                    continue;
                }
                if (consume(']')) {
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = Value::Kind::string;
            return parseString(out.str);
        }
        if (c == 't') {
            out.kind = Value::Kind::boolean;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = Value::Kind::boolean;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = Value::Kind::null;
            return literal("null");
        }
        // number
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) {
            ++pos;
        }
        while (pos < text.size() &&
               ((text[pos] >= '0' && text[pos] <= '9') ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '-' || text[pos] == '+')) {
            ++pos;
        }
        if (pos == start) {
            return fail("expected value");
        }
        out.kind = Value::Kind::number;
        out.num = std::strtod(std::string(text.substr(start, pos - start))
                                  .c_str(),
                              nullptr);
        return true;
    }
};

} // namespace

bool
parse(std::string_view text, Value& out, std::string* err)
{
    Parser p{text};
    out = Value{};
    if (!p.parseValue(out)) {
        if (err != nullptr) {
            *err = p.err;
        }
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err != nullptr) {
            *err = "trailing data after document";
        }
        return false;
    }
    return true;
}

} // namespace json

bool
writeTextFile(const std::string& path, std::string_view content)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    const std::size_t written =
        std::fwrite(content.data(), 1, content.size(), f);
    const bool ok = written == content.size() && std::fclose(f) == 0;
    if (!ok && written != content.size()) {
        std::fclose(f);
    }
    return ok;
}

} // namespace crono::obs
