//! Answer checking. Every served answer is compared with the same
//! `.usix` queried in-process through `UsiIndex::query`; on
//! `ingest_mix`, where appends land while queries run, an answer must
//! lie between the base index's and the fully appended pipeline's.

use crate::client::Response;
use crate::workload::{Inputs, Op};
use std::sync::Mutex;
use usi_core::{UsiIndex, UsiQuery};
use usi_server::json::source_name;
use usi_server::Json;

/// Relative tolerance on utility values (sums of the same weights may
/// associate differently across segment layouts).
const VALUE_TOLERANCE: f64 = 1e-9;

/// One served answer, as parsed from a response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    pub occurrences: u64,
    pub value: Option<f64>,
}

/// The per-pattern results of a `/v1/query` response, in order.
pub fn parse_results(body: &[u8]) -> Option<Vec<(Served, String)>> {
    let parsed = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    parsed
        .get("results")?
        .as_array()?
        .iter()
        .map(|r| {
            let occurrences = r.get("occurrences")?.as_f64()?;
            let value = match r.get("value")? {
                Json::Null => None,
                v => Some(v.as_f64()?),
            };
            let source = r.get("source")?.as_str()?.to_string();
            Some((Served { occurrences: occurrences as u64, value }, source))
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= VALUE_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Whether a served answer equals the in-process one.
pub fn same_answer(served: Served, expected: &UsiQuery) -> bool {
    served.occurrences == expected.occurrences
        && match (served.value, expected.value) {
            (None, None) => true,
            (Some(a), Some(b)) => close(a, b),
            _ => false,
        }
}

/// Whether a served answer lies between two states of a growing text
/// (occurrences and utility sums only grow under appends).
pub fn within(served: Served, low: &UsiQuery, high: &UsiQuery) -> bool {
    let value_ok = match served.value {
        None => low.value.is_none(),
        Some(v) => {
            low.value.is_none_or(|lo| v >= lo - VALUE_TOLERANCE * lo.abs().max(1.0))
                && high.value.is_some_and(|hi| v <= hi + VALUE_TOLERANCE * hi.abs().max(1.0))
        }
    };
    (low.occurrences..=high.occurrences).contains(&served.occurrences) && value_ok
}

/// Expected answers for every pattern in the table.
pub fn expected_answers(index: &UsiIndex, inputs: &Inputs) -> Vec<UsiQuery> {
    inputs.patterns.iter().map(|p| index.query(p)).collect()
}

/// Checks responses as they arrive. Static documents are checked
/// exactly; on a growing document the answers are recorded for
/// [`Checker::check_growing`] and appends' acknowledgements are logged
/// in order.
pub struct Checker<'a> {
    base: &'a [UsiQuery],
    growing: bool,
    /// `(pattern id, served)` for every answer on a growing document.
    pub recorded: Mutex<Vec<(u32, Served)>>,
    /// Append chunks the server acknowledged, in acknowledgement order.
    pub appended: Mutex<Vec<usize>>,
}

impl<'a> Checker<'a> {
    pub fn new(base: &'a [UsiQuery], growing: bool) -> Self {
        Self { base, growing, recorded: Mutex::new(Vec::new()), appended: Mutex::new(Vec::new()) }
    }

    /// Verdict on a 200 response to `op`.
    pub fn check(&self, op: &Op, response: &Response) -> bool {
        match op {
            Op::Append(chunk) => {
                self.appended.lock().expect("append log lock poisoned").push(*chunk);
                true
            }
            Op::Query(ids) => {
                let Some(results) = parse_results(&response.body) else { return false };
                if results.len() != ids.len() {
                    return false;
                }
                if self.growing {
                    let mut recorded = self.recorded.lock().expect("answer log lock poisoned");
                    recorded.extend(ids.iter().zip(&results).map(|(&id, (s, _))| (id, *s)));
                    return true;
                }
                ids.iter().zip(&results).all(|(&id, (served, source))| {
                    let expected = &self.base[id as usize];
                    same_answer(*served, expected) && source == source_name(expected.source)
                })
            }
        }
    }

    /// Checks every recorded answer against `base ≤ served ≤ fin`,
    /// returning how many fall outside.
    pub fn check_growing(&self, fin: &[UsiQuery]) -> usize {
        let recorded = self.recorded.lock().expect("answer log lock poisoned");
        recorded
            .iter()
            .filter(|(id, served)| !within(*served, &self.base[*id as usize], &fin[*id as usize]))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usi_core::QuerySource;

    fn q(occurrences: u64, value: Option<f64>) -> UsiQuery {
        UsiQuery { occurrences, value, source: QuerySource::TextIndex }
    }

    #[test]
    fn parses_the_served_shape() {
        let body = br#"{"doc":"hum","results":[{"pattern":"AC","occurrences":3,"value":2.25,"source":"cached"},{"pattern":"GG","occurrences":0,"value":null,"source":"computed"}]}"#;
        let results = parse_results(body).unwrap();
        assert_eq!(results[0], (Served { occurrences: 3, value: Some(2.25) }, "cached".into()));
        assert_eq!(results[1], (Served { occurrences: 0, value: None }, "computed".into()));
        assert!(parse_results(b"{\"error\":\"x\"}").is_none());
    }

    #[test]
    fn exact_and_bounded_comparisons() {
        let s = Served { occurrences: 4, value: Some(3.0) };
        assert!(same_answer(s, &q(4, Some(3.0 + 1e-12))));
        assert!(!same_answer(s, &q(5, Some(3.0))));
        assert!(!same_answer(s, &q(4, None)));
        assert!(within(s, &q(2, Some(1.5)), &q(6, Some(4.5))));
        assert!(!within(s, &q(5, Some(3.5)), &q(6, Some(4.5))));
        assert!(within(Served { occurrences: 0, value: None }, &q(0, None), &q(2, Some(1.0))));
    }
}
