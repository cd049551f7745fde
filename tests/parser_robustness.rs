//! Robustness: arbitrary input must never panic the parsers — malformed
//! queries and fragments arrive over the network and must fail cleanly.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary strings through the XML parser: Ok or Err, never panic.
    #[test]
    fn xml_parser_never_panics(input in ".{0,200}") {
        let _ = sensorxml::parse(&input);
    }

    /// Arbitrary strings through the XPath parser.
    #[test]
    fn xpath_parser_never_panics(input in ".{0,120}") {
        let _ = sensorxpath::parse(&input);
    }

    /// XML-ish strings (likelier to get deep into the parser).
    #[test]
    fn xmlish_inputs_never_panic(input in "[<>/=a-z'\" &;!?\\[\\]-]{0,150}") {
        let _ = sensorxml::parse(&input);
    }

    /// XPath-ish strings.
    #[test]
    fn xpathish_inputs_never_panic(input in "[a-z0-9/@\\[\\]()'= <>.*|+-]{0,100}") {
        let _ = sensorxpath::parse(&input);
    }

    /// Stylesheet parser over XML-ish input.
    #[test]
    fn stylesheet_parser_never_panics(input in "[<>/=a-z:'\"{} ]{0,150}") {
        let _ = sensorxslt::parse_stylesheet(&input);
    }

    /// Whatever parses as XPath must evaluate without panicking against a document
    /// (errors allowed), and whatever parses as XML must serialize.
    #[test]
    fn parsed_artifacts_are_usable(xml in "[<>/=a-z'\" ]{0,100}", xp in "[a-z0-9/@\\[\\]()'=.]{0,60}") {
        if let Ok(doc) = sensorxml::parse(&xml) {
            let root = doc.root().expect("parsed documents have roots");
            let _ = sensorxml::serialize(&doc, root);
            let _ = sensorxml::canonical_string(&doc, root);
            if let Ok(expr) = sensorxpath::parse(&xp) {
                let _ = sensorxpath::evaluate_at(&expr, &doc, sensorxpath::XNode::Node(root));
            }
        }
    }

    /// The agent survives arbitrary query strings from the network.
    #[test]
    fn agent_survives_arbitrary_queries(q in ".{0,80}") {
        use irisdns::{AuthoritativeDns, SiteAddr};
        use irisnet_core::{Endpoint, Message, OaConfig, OrganizingAgent, Service};
        let svc = Service::parking();
        let mut oa = OrganizingAgent::new(SiteAddr(1), svc, OaConfig::default());
        let mut dns = AuthoritativeDns::new();
        let out = oa.handle(
            Message::UserQuery { qid: 1, text: q, endpoint: Endpoint(0) },
            &mut dns,
            0.0,
        );
        // Always exactly one reply (possibly an error), never silence.
        prop_assert_eq!(out.len(), 1);
    }
}

/// Deeply nested query text from the network fails cleanly instead of
/// overflowing the stack: on a thread with a 256 KiB stack (an eighth of a
/// shard thread's default) the parser rejects 100 000 nested parentheses,
/// predicates and unary minus signs, and an agent answers each such user
/// query with one error reply.
#[test]
fn deeply_nested_queries_are_rejected_on_a_small_stack() {
    use irisdns::{AuthoritativeDns, SiteAddr};
    use irisnet_core::{Endpoint, Message, OaConfig, OrganizingAgent, Service};
    const DEEP: usize = 100_000;
    let texts = vec![
        format!("{}1{}", "(".repeat(DEEP), ")".repeat(DEEP)),
        format!("/usRegion{}{}", "[a".repeat(DEEP), "]".repeat(DEEP)),
        format!("{}1", "-".repeat(DEEP)),
        format!("count({}/usRegion)", "-".repeat(DEEP)),
    ];
    let replies = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let mut oa = OrganizingAgent::new(SiteAddr(1), Service::parking(), OaConfig::default());
            let mut dns = AuthoritativeDns::new();
            texts
                .into_iter()
                .map(|text| {
                    assert!(sensorxpath::parse(&text).is_err());
                    let msg = Message::UserQuery { qid: 1, text, endpoint: Endpoint(0) };
                    oa.handle(msg, &mut dns, 0.0).len()
                })
                .collect::<Vec<_>>()
        })
        .expect("spawn the parsing thread")
        .join()
        .expect("parsing thread overflowed its stack or panicked");
    assert_eq!(replies, vec![1; 4]);
}
