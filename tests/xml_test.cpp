// Unit tests for the XML module: arena DOM, in-situ parser, writer,
// schema.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "xml/schema.hpp"
#include "xml/writer.hpp"

namespace excovery::xml {
namespace {

// ---- parser ------------------------------------------------------------------

TEST(XmlParser, SimpleElement) {
  Result<Document> doc = parse("<a/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().name(), "a");
  EXPECT_TRUE(doc.value().root().children().empty());
}

TEST(XmlParser, AttributesBothQuoteStyles) {
  Result<Document> doc = parse(R"(<node id="A" kind='actor'/>)");
  ASSERT_TRUE(doc.ok());
  const Element& root = doc.value().root();
  EXPECT_EQ(*root.attr("id"), "A");
  EXPECT_EQ(*root.attr("kind"), "actor");
  EXPECT_EQ(root.attr("missing"), nullptr);
}

TEST(XmlParser, NestedChildrenAndText) {
  Result<Document> doc = parse(
      "<factor id=\"f\"><levels><level>5</level><level>20</level>"
      "</levels></factor>");
  ASSERT_TRUE(doc.ok());
  const Element* levels = doc.value().root().child("levels");
  ASSERT_NE(levels, nullptr);
  std::vector<const Element*> level_nodes;
  for (const Element* level : levels->children_named("level")) {
    level_nodes.push_back(level);
  }
  ASSERT_EQ(level_nodes.size(), 2u);
  EXPECT_EQ(level_nodes[0]->text(), "5");
  EXPECT_EQ(level_nodes[1]->text(), "20");
  EXPECT_EQ(levels->children_named("level").size(), 2u);
}

TEST(XmlParser, EntityDecoding) {
  Result<Document> doc =
      parse("<t a=\"&lt;&amp;&gt;\">&quot;x&apos; &#65;&#x42;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc.value().root().attr("a"), "<&>");
  EXPECT_EQ(doc.value().root().text(), "\"x' AB");
}

TEST(XmlParser, CdataPreserved) {
  Result<Document> doc = parse("<t><![CDATA[a < b && c > d]]></t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().text(), "a < b && c > d");
}

TEST(XmlParser, CommentsAndPisSkipped) {
  Result<Document> doc = parse(
      "<?xml version=\"1.0\"?><!-- hello --><t><!-- inner -->x<?pi y?></t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().text(), "x");
}

TEST(XmlParser, MismatchedTagIsError) {
  Result<Document> doc = parse("<a><b></a></b>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().code(), ErrorCode::kParse);
}

TEST(XmlParser, ErrorsCarryPosition) {
  Result<Document> doc = parse("<a>\n<b attr></b></a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message().find("line 2"), std::string::npos);
}

TEST(XmlParser, DuplicateAttributeRejected) {
  EXPECT_FALSE(parse("<a x=\"1\" x=\"2\"/>").ok());
}

TEST(XmlParser, MultipleRootsRejected) {
  EXPECT_FALSE(parse("<a/><b/>").ok());
}

TEST(XmlParser, EmptyDocumentRejected) {
  EXPECT_FALSE(parse("   ").ok());
  EXPECT_FALSE(parse("<!-- only a comment -->").ok());
}

TEST(XmlParser, UnterminatedElementRejected) {
  EXPECT_FALSE(parse("<a><b>").ok());
}

TEST(XmlParser, DeepNestingBounded) {
  std::string deep;
  for (int i = 0; i < 400; ++i) deep += "<d>";
  for (int i = 0; i < 400; ++i) deep += "</d>";
  EXPECT_FALSE(parse(deep).ok());
}

TEST(XmlParser, Utf8CharacterReferences) {
  Result<Document> doc = parse("<t>&#xE9;&#x4E16;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().text(), "\xC3\xA9\xE4\xB8\x96");
}

TEST(XmlParser, XmlWhitespaceOnlyBetweenTokens) {
  // The four XML whitespace characters are accepted between markup tokens;
  // tokenisation no longer consults the locale-sensitive std::isspace.
  EXPECT_TRUE(parse("<a \t\r\n x=\"1\" \t />").ok());
  Result<Document> doc = parse(" \t\r\n <a/> \t\r\n ");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().name(), "a");
}

TEST(XmlParser, OwnershipTransferOverloadParsesInSitu) {
  // The rvalue overload retains the input buffer inside the document and
  // parses in situ; views stay valid for the document's whole lifetime.
  std::string source = "<config mode=\"fast\"><entry>payload</entry></config>";
  Result<Document> doc = parse(std::move(source));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc.value().root().attr("mode"), "fast");
  EXPECT_EQ(doc.value().root().child("entry")->text(), "payload");
}

TEST(XmlParser, DocumentIsStableAcrossMoves) {
  Result<Document> parsed = parse("<r a=\"v\"><c>text</c></r>");
  ASSERT_TRUE(parsed.ok());
  Document moved = std::move(parsed).value();
  Document moved_again = std::move(moved);
  EXPECT_EQ(*moved_again.root().attr("a"), "v");
  EXPECT_EQ(moved_again.root().child("c")->text(), "text");
}

// ---- writer ----------------------------------------------------------------------

TEST(XmlWriter, RoundTripPreservesStructure) {
  const char* source =
      "<experiment name=\"x\"><nodelist><node id=\"A\" /><node id=\"B\" />"
      "</nodelist><note>with &lt;escapes&gt; &amp; entities</note>"
      "</experiment>";
  Result<Document> first = parse(source);
  ASSERT_TRUE(first.ok());
  std::string text = write(first.value().root());
  Result<Document> second = parse(text);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first.value().root().equals(second.value().root()));
}

TEST(XmlWriter, CompactModeHasNoNewlines) {
  Document doc("a");
  doc.root().add_child("b").set_text("t");
  std::string text = write(doc.root(), {.pretty = false, .declaration = false});
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_EQ(text, "<a><b>t</b></a>");
}

TEST(XmlWriter, AttributeEscaping) {
  Document doc("a");
  doc.root().set_attr("v", "x\"<&>'");
  std::string text = write(doc.root(), {.pretty = false, .declaration = false});
  Result<Document> back = parse(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back.value().root().attr("v"), "x\"<&>'");
}

TEST(XmlWriter, CanonicalSinkMatchesStringOutput) {
  Result<Document> doc =
      parse("<r b=\"2\" a=\"1\"><k>v</k>  tail  </r>");
  ASSERT_TRUE(doc.ok());
  std::string canonical = write_canonical(doc.value().root());
  struct Collect final : Sink {
    std::string out;
    void write(const char* data, std::size_t size) override {
      out.append(data, size);
    }
  } collect;
  write_canonical(doc.value().root(), collect);
  EXPECT_EQ(collect.out, canonical);
  EXPECT_EQ(canonical_size(doc.value().root()), canonical.size());
}

// ---- DOM helpers --------------------------------------------------------------------

TEST(XmlDom, RequireHelpers) {
  Document doc("r");
  Element& root = doc.root();
  root.add_child("c").set_attr("id", "1");
  EXPECT_TRUE(root.require_child("c").ok());
  EXPECT_FALSE(root.require_child("missing").ok());
  EXPECT_TRUE(root.child("c")->require_attr("id").ok());
  EXPECT_FALSE(root.child("c")->require_attr("nope").ok());
}

TEST(XmlDom, CloneIsDeepAndEqual) {
  Result<Document> doc = parse("<a x=\"1\"><b>t</b><b>u</b></a>");
  ASSERT_TRUE(doc.ok());
  Document copy = doc.value().clone();
  EXPECT_TRUE(doc.value().root().equals(copy.root()));
  copy.root().child("b")->set_text("changed");
  EXPECT_FALSE(doc.value().root().equals(copy.root()));
}

TEST(XmlDom, AddTextChildConvenience) {
  Document doc("r");
  doc.root().add_text_child("k", "v");
  EXPECT_EQ(doc.root().child("k")->text(), "v");
}

TEST(XmlDom, MutationAfterParseCopiesIntoArena) {
  // set_attr / append_text on a parsed document must copy transient input
  // into the arena, not alias it.
  Result<Document> parsed = parse("<r/>");
  ASSERT_TRUE(parsed.ok());
  Document doc = std::move(parsed).value();
  {
    std::string transient = "short-lived-value";
    doc.root().set_attr("k", transient);
    doc.root().append_text(transient);
    transient.assign(transient.size(), 'X');
  }
  EXPECT_EQ(*doc.root().attr("k"), "short-lived-value");
  EXPECT_EQ(doc.root().text(), "short-lived-value");
}

TEST(XmlDom, NamedChildRangeIsLazyAndOrdered) {
  Result<Document> doc =
      parse("<r><a i=\"1\"/><b/><a i=\"2\"/><c/><a i=\"3\"/></r>");
  ASSERT_TRUE(doc.ok());
  std::vector<std::string> seen;
  for (const Element* a : doc.value().root().children_named("a")) {
    seen.push_back(std::string(*a->attr("i")));
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_TRUE(doc.value().root().children_named("missing").empty());
}

TEST(XmlDom, SubtreeCopyAcrossDocuments) {
  Result<Document> source = parse("<s><sub k=\"v\"><leaf>t</leaf></sub></s>");
  ASSERT_TRUE(source.ok());
  Document target("t");
  target.root().add_subtree_copy(*source.value().root().child("sub"));
  const Element* sub = target.root().child("sub");
  ASSERT_NE(sub, nullptr);
  EXPECT_TRUE(sub->equals(*source.value().root().child("sub")));
}

// ---- schema ----------------------------------------------------------------------------

Schema make_schema() {
  Schema schema;
  schema.element("library")
      .child("book", Occurs::at_least(1))
      .no_text();
  schema.element("book")
      .attr("isbn", /*required=*/true)
      .attr("lang", false, {"en", "de"})
      .child("title", Occurs::required())
      .child("author", Occurs::any());
  schema.element("title");
  schema.element("author");
  return schema;
}

TEST(XmlSchema, AcceptsValidDocument) {
  Result<Document> doc = parse(
      "<library><book isbn=\"1\" lang=\"en\"><title>t</title>"
      "<author>a</author><author>b</author></book></library>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(make_schema().validate(doc.value().root()).ok());
}

TEST(XmlSchema, MissingRequiredAttribute) {
  Result<Document> doc =
      parse("<library><book><title>t</title></book></library>");
  ASSERT_TRUE(doc.ok());
  Status status = make_schema().validate(doc.value().root());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("isbn"), std::string::npos);
}

TEST(XmlSchema, EnumeratedAttributeValue) {
  Result<Document> doc = parse(
      "<library><book isbn=\"1\" lang=\"fr\"><title>t</title></book>"
      "</library>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(make_schema().validate(doc.value().root()).ok());
}

TEST(XmlSchema, OccurrenceBounds) {
  Result<Document> no_books = parse("<library></library>");
  ASSERT_TRUE(no_books.ok());
  EXPECT_FALSE(make_schema().validate(no_books.value().root()).ok());

  Result<Document> two_titles = parse(
      "<library><book isbn=\"1\"><title>a</title><title>b</title></book>"
      "</library>");
  ASSERT_TRUE(two_titles.ok());
  EXPECT_FALSE(make_schema().validate(two_titles.value().root()).ok());
}

TEST(XmlSchema, UnexpectedChildRejectedUnlessOpen) {
  Result<Document> doc = parse(
      "<library><book isbn=\"1\"><title>t</title><extra/></book></library>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(make_schema().validate(doc.value().root()).ok());

  Schema open = make_schema();
  open.element("book").open_children();
  EXPECT_TRUE(open.validate(doc.value().root()).ok());
}

TEST(XmlSchema, TextPolicyEnforced) {
  Result<Document> doc = parse(
      "<library>oops<book isbn=\"1\"><title>t</title></book></library>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(make_schema().validate(doc.value().root()).ok());
}

TEST(XmlSchema, StrictModeFlagsUnknownElements) {
  Schema schema = make_schema();
  Result<Document> doc = parse("<unknown/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(schema.validate(doc.value().root()).ok());
  EXPECT_FALSE(schema.validate(doc.value().root(), /*strict=*/true).ok());
}

TEST(XmlSchema, CollectsAllProblems) {
  Result<Document> doc =
      parse("<library><book lang=\"fr\"></book></library>");
  ASSERT_TRUE(doc.ok());
  Status status = make_schema().validate(doc.value().root());
  ASSERT_FALSE(status.ok());
  // Three problems: missing isbn, bad lang, missing title.
  EXPECT_NE(status.error().message().find("isbn"), std::string::npos);
  EXPECT_NE(status.error().message().find("lang"), std::string::npos);
  EXPECT_NE(status.error().message().find("title"), std::string::npos);
}

}  // namespace
}  // namespace excovery::xml
