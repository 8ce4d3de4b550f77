#include "project/xml.hpp"

#include <cctype>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace psnap::project {

const XmlNode* XmlNode::child(const std::string& tag) const {
  for (const XmlNode& node : children) {
    if (node.tag == tag) return &node;
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::childrenNamed(
    const std::string& tag) const {
  std::vector<const XmlNode*> out;
  for (const XmlNode& node : children) {
    if (node.tag == tag) out.push_back(&node);
  }
  return out;
}

std::string XmlNode::attr(const std::string& name,
                          const std::string& fallback) const {
  auto it = attrs.find(name);
  return it == attrs.end() ? fallback : it->second;
}

std::string xmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += ch;
    }
  }
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  XmlNode parse() {
    skipProlog();
    XmlNode root = parseElement();
    skipSpace();
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    throw ParseError("XML at offset " + std::to_string(pos_) + ": " +
                     message);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char get() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }
  bool consume(const std::string& expected) {
    if (text_.compare(pos_, expected.size(), expected) == 0) {
      pos_ += expected.size();
      return true;
    }
    return false;
  }
  void skipSpace() {
    while (pos_ < text_.size() && strings::isSpace(text_[pos_])) ++pos_;
  }
  void skipProlog() {
    skipSpace();
    while (consume("<?")) {
      size_t end = text_.find("?>", pos_);
      if (end == std::string::npos) fail("unterminated declaration");
      pos_ = end + 2;
      skipSpace();
    }
    skipComments();
  }
  void skipComments() {
    skipSpace();
    while (consume("<!--")) {
      size_t end = text_.find("-->", pos_);
      if (end == std::string::npos) fail("unterminated comment");
      pos_ = end + 3;
      skipSpace();
    }
  }

  std::string parseName() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' ||
            text_[pos_] == ':')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a name");
    return text_.substr(start, pos_ - start);
  }

  std::string decodeEntities(const std::string& raw) {
    std::string out;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string::npos) fail("unterminated entity");
      std::string entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") out += '&';
      else if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else fail("unknown entity &" + entity + ";");
      i = semi;
    }
    return out;
  }

  XmlNode parseElement() {
    if (get() != '<') fail("expected '<'");
    XmlNode node;
    node.tag = parseName();
    // attributes
    while (true) {
      skipSpace();
      char ch = peek();
      if (ch == '>' || ch == '/') break;
      std::string name = parseName();
      skipSpace();
      if (get() != '=') fail("expected '=' after attribute " + name);
      skipSpace();
      char quote = get();
      if (quote != '"' && quote != '\'') fail("expected quoted value");
      size_t end = text_.find(quote, pos_);
      if (end == std::string::npos) fail("unterminated attribute value");
      node.attrs[name] = decodeEntities(text_.substr(pos_, end - pos_));
      pos_ = end + 1;
    }
    if (consume("/>")) return node;
    if (get() != '>') fail("expected '>'");

    // content
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated element <" + node.tag);
      if (consume("<!--")) {
        size_t end = text_.find("-->", pos_);
        if (end == std::string::npos) fail("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (text_.compare(pos_, 2, "</") == 0) {
        pos_ += 2;
        std::string closing = parseName();
        if (closing != node.tag) {
          fail("mismatched </" + closing + "> for <" + node.tag + ">");
        }
        skipSpace();
        if (get() != '>') fail("expected '>' in closing tag");
        return node;
      }
      if (peek() == '<') {
        node.children.push_back(parseElement());
        continue;
      }
      size_t next = text_.find('<', pos_);
      if (next == std::string::npos) fail("unterminated element content");
      node.text += decodeEntities(text_.substr(pos_, next - pos_));
      pos_ = next;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

void writeNode(const XmlNode& node, int depth, std::string& out) {
  const std::string pad(static_cast<size_t>(depth) * 2, ' ');
  out += pad + "<" + node.tag;
  for (const auto& [name, value] : node.attrs) {
    out += " " + name + "=\"" + xmlEscape(value) + "\"";
  }
  if (node.children.empty() && node.text.empty()) {
    out += "/>\n";
    return;
  }
  out += ">";
  if (!node.text.empty()) out += xmlEscape(node.text);
  if (!node.children.empty()) {
    out += "\n";
    for (const XmlNode& child : node.children) {
      writeNode(child, depth + 1, out);
    }
    out += pad;
  }
  out += "</" + node.tag + ">\n";
}

}  // namespace

XmlNode parseXml(const std::string& text) { return Parser(text).parse(); }

std::string writeXml(const XmlNode& node) {
  std::string out;
  writeNode(node, 0, out);
  return out;
}

}  // namespace psnap::project
