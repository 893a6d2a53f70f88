//! One declaration per key: the typed schema behind scenario files and
//! node configs.
//!
//! A [`Schema`] type lists its keys once, in [`Schema::visit`]. Each
//! declaration names the key, its type (a [`Codec`] for one value, or a
//! hand-written [`Field`] for keys that depend on each other), and its
//! [`Rule`]: required, or a default that output either always writes or
//! omits when the value equals it. Two visitors walk the same list:
//!
//! * the [`Reader`] fills a blank value from a TOML table, applies the
//!   defaults of absent keys, and rejects every key nobody declared;
//! * the [`Writer`] emits the canonical table.
//!
//! ```
//! use hh_scenario::schema::{self, key, Rule, Schema, Visitor};
//! use hh_scenario::toml;
//!
//! #[derive(Clone, Debug, Default, PartialEq)]
//! struct Knobs {
//!     period: u64,
//!     verbose: bool,
//! }
//!
//! impl Schema for Knobs {
//!     fn visit(&mut self, v: &mut impl Visitor) {
//!         v.section("knobs", |v| {
//!             v.field(key::<u64>("period"), &mut self.period, Rule::Always(|| 20));
//!             v.field(key::<bool>("verbose"), &mut self.verbose, Rule::Omit(|| false));
//!         });
//!     }
//! }
//!
//! let knobs: Knobs = schema::read(&toml::parse("[knobs]\n").unwrap(), "the root").unwrap();
//! assert_eq!(knobs, Knobs { period: 20, verbose: false });
//! assert_eq!(toml::serialize(&schema::write(&knobs)), "\n[knobs]\nperiod = 20\n");
//! let typo = toml::parse("[knobs]\nperiods = 3\n").unwrap();
//! let err = schema::read::<Knobs>(&typo, "the root").unwrap_err();
//! assert!(err.to_string().contains("unknown key `periods` in [knobs]"));
//! ```

use crate::spec::ScenarioError;
use crate::toml::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::path::PathBuf;

/// A TOML table.
pub(crate) type Table = BTreeMap<String, Value>;

static EMPTY: Table = BTreeMap::new();

/// A type whose keys are declared once, in [`Schema::visit`].
///
/// `Default` is only the blank the [`Reader`] fills in: every declared
/// field is overwritten, by its value or by its rule's default.
pub trait Schema: Clone + Default {
    /// Declares every key, in the order errors are reported.
    fn visit(&mut self, v: &mut impl Visitor);
}

/// What an absent key reads as, and whether output writes it. Defaults
/// are functions so that reading a present key builds none.
pub enum Rule<T> {
    /// Absence is an error; output always writes the value.
    Required,
    /// Absence reads as this default; output always writes the value.
    Always(fn() -> T),
    /// Absence reads as this default; output omits a value equal to it.
    Omit(fn() -> T),
}

/// Walks a schema's declarations: the [`Reader`] and the [`Writer`].
pub trait Visitor {
    /// Declares `f` as stored in `place`.
    fn field<F: Field>(&mut self, f: F, place: &mut F::T, rule: Rule<F::T>);

    /// Declares the sub-table `name`, whose keys `body` declares.
    fn section(&mut self, name: &'static str, body: impl FnOnce(&mut Self));

    /// Declares an optional field: absent reads as `None`, and output
    /// writes only `Some`.
    fn opt<F: Field>(&mut self, f: F, place: &mut Option<F::T>) {
        self.field(Opt(f), place, Rule::Omit(|| None));
    }
}

/// One value's TOML form.
pub trait Codec {
    /// The Rust value.
    type T: Clone + PartialEq;
    /// Reads the value of the key `at` names.
    fn decode(v: &Value, at: &At<'_>) -> Result<Self::T, ScenarioError>;
    /// Writes the value.
    fn encode(x: &Self::T) -> Value;
}

/// A field of a table: the keys it owns, read and written together.
/// Single keys are [`key`]s; keys that depend on each other are
/// hand-written `Field`s.
pub trait Field {
    /// The Rust value.
    type T: Clone + PartialEq;
    /// Every key the field may read.
    fn keys(&self) -> &[&'static str];
    /// Reads the field; `None` when none of its keys is present.
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<Self::T>, ScenarioError>;
    /// Writes the field.
    fn write(&self, x: &Self::T, w: &mut Writer);
}

/// Reads a whole document into `S`. `label` names the root table in
/// errors.
pub fn read<S: Schema>(root: &Value, label: &'static str) -> Result<S, ScenarioError> {
    let table =
        root.as_table().ok_or_else(|| ScenarioError::Schema(format!("{label} must be a table")))?;
    let mut r = Reader {
        label,
        table,
        path: Vec::new(),
        known: Vec::with_capacity(32),
        hits: Cell::new(0),
        err: None,
    };
    r.read_table(None, table)
}

/// Writes `s` as a document.
pub fn write<S: Schema>(s: &S) -> Value {
    let mut w = Writer::default();
    s.clone().visit(&mut w);
    Value::Table(w.table)
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Reads declared fields from one table at a time, descending into
/// sub-tables, and rejects keys no declaration owns.
///
/// Errors keep the precedence of a hand-written check: an unknown key in
/// a table is reported before any bad value inside it, and otherwise the
/// first bad value in declaration order wins.
pub struct Reader<'a> {
    label: &'static str,
    table: &'a Table,
    /// Keys from the root to the current table; `true` marks an
    /// array-of-tables entry.
    path: Vec<(&'static str, bool)>,
    /// Declared keys of the tables being read, innermost last.
    known: Vec<&'static str>,
    /// Keys of the current table read so far.
    hits: Cell<usize>,
    err: Option<ScenarioError>,
}

impl<'a> Reader<'a> {
    /// How errors name the current table: `[run]`, `[[faults.crash]]`,
    /// or the root's label.
    pub(crate) fn ctx(&self) -> String {
        let Some(&(_, array)) = self.path.last() else {
            return self.label.to_string();
        };
        let path: Vec<&str> = self.path.iter().map(|(name, _)| *name).collect();
        if array {
            format!("[[{}]]", path.join("."))
        } else {
            format!("[{}]", path.join("."))
        }
    }

    /// Whether the current table sets `key`. Unlike the readers below,
    /// a peek: a field may check any key with it.
    pub(crate) fn has(&self, key: &str) -> bool {
        self.table.contains_key(key)
    }

    /// The value of `key` in the current table. A field reads each key
    /// it owns at most once, through this and the readers below, so that
    /// the reads count the table's declared keys.
    fn lookup(&self, key: &str) -> Option<&'a Value> {
        let table: &'a Table = self.table;
        let value = table.get(key);
        self.hits.set(self.hits.get() + usize::from(value.is_some()));
        value
    }

    /// Reads `key` of the current table as `C`.
    pub(crate) fn get<C: Codec>(&self, key: &'static str) -> Result<Option<C::T>, ScenarioError> {
        self.lookup(key).map(|v| C::decode(v, &At { key, reader: self })).transpose()
    }

    /// Reads `key` of the current table as a string, without copying it.
    pub(crate) fn str(&self, key: &'static str) -> Result<Option<&'a str>, ScenarioError> {
        self.lookup(key).map(|v| At { key, reader: self }.str(v)).transpose()
    }

    /// Reads the sub-table `key` as `S`.
    pub(crate) fn table<S: Schema>(
        &mut self,
        key: &'static str,
    ) -> Result<Option<S>, ScenarioError> {
        match self.lookup(key) {
            None => Ok(None),
            Some(Value::Table(t)) => self.read_table(Some((key, false)), t).map(Some),
            Some(other) => Err(self.type_error(key, "a table", other)),
        }
    }

    /// Reads the array of tables `key` as a list of `S`.
    pub(crate) fn tables<S: Schema>(
        &mut self,
        key: &'static str,
    ) -> Result<Option<Vec<S>>, ScenarioError> {
        let items = match self.lookup(key) {
            None => return Ok(None),
            Some(Value::Array(items)) => items,
            Some(other) => return Err(self.type_error(key, "an array of tables", other)),
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let Value::Table(t) = item else {
                return Err(self.type_error(key, "an array of tables", item));
            };
            out.push(self.read_table(Some((key, true)), t)?);
        }
        Ok(Some(out))
    }

    fn type_error(&self, key: &str, what: &str, got: &Value) -> ScenarioError {
        ScenarioError::Schema(format!("`{key}` in {} must be {what}, got {got:?}", self.ctx()))
    }

    fn read_table<S: Schema>(
        &mut self,
        step: Option<(&'static str, bool)>,
        table: &'a Table,
    ) -> Result<S, ScenarioError> {
        let mut s = S::default();
        self.enter(step, table, |r| s.visit(r))?;
        Ok(s)
    }

    /// Runs `body` against `table`, then checks that it set no
    /// undeclared key. `step` names the table below the current one
    /// (`None` for the root). Only called while no error is pending.
    fn enter(
        &mut self,
        step: Option<(&'static str, bool)>,
        table: &'a Table,
        body: impl FnOnce(&mut Self),
    ) -> Result<(), ScenarioError> {
        let outer = std::mem::replace(&mut self.table, table);
        let outer_hits = self.hits.replace(0);
        let start = self.known.len();
        self.path.extend(step);
        body(self);
        let declared = &self.known[start..];
        let is_unknown = |k: &&String| !declared.contains(&k.as_str());
        // Reads that account for every key leave none unknown.
        let all_read = self.hits.get() == table.len();
        debug_assert!(!all_read || !table.keys().any(|k| is_unknown(&k)), "a key was read twice");
        let unknown = if all_read { None } else { table.keys().find(is_unknown) };
        let result = match unknown {
            Some(unknown) => Err(ScenarioError::Schema(format!(
                "unknown key `{unknown}` in {} (allowed: {})",
                self.ctx(),
                declared.join(", ")
            ))),
            None => self.err.take().map_or(Ok(()), Err),
        };
        if step.is_some() {
            self.path.pop();
        }
        self.known.truncate(start);
        self.table = outer;
        self.hits.set(outer_hits);
        result
    }
}

impl<'a> Visitor for Reader<'a> {
    fn field<F: Field>(&mut self, f: F, place: &mut F::T, rule: Rule<F::T>) {
        // An empty (or absent) table has no key to reject and none to
        // read: straight to the defaults.
        let empty = self.table.is_empty();
        if !empty {
            self.known.extend_from_slice(f.keys());
        }
        if self.err.is_some() {
            return;
        }
        match if empty { Ok(None) } else { f.read(self) } {
            Ok(Some(x)) => *place = x,
            Ok(None) => match rule {
                Rule::Required => {
                    self.err = Some(ScenarioError::Schema(format!(
                        "missing required key `{}` in {}",
                        f.keys().join("` or `"),
                        self.ctx()
                    )));
                }
                Rule::Always(d) | Rule::Omit(d) => *place = d(),
            },
            Err(e) => self.err = Some(e),
        }
    }

    fn section(&mut self, name: &'static str, body: impl FnOnce(&mut Self)) {
        self.known.push(name);
        if self.err.is_some() {
            return;
        }
        let table = match self.lookup(name) {
            None => &EMPTY,
            Some(Value::Table(t)) => t,
            Some(other) => {
                self.err = Some(self.type_error(name, "a table", other));
                return;
            }
        };
        if let Err(e) = self.enter(Some((name, false)), table, body) {
            self.err = Some(e);
        }
    }
}

/// The key a [`Codec`] is decoding, for its error messages.
pub struct At<'r> {
    key: &'static str,
    reader: &'r Reader<'r>,
}

impl At<'_> {
    /// "`key` in [table] must be `what`, got …".
    pub(crate) fn expected(&self, what: &str, got: &Value) -> ScenarioError {
        self.reader.type_error(self.key, what, got)
    }

    /// The string `v` holds.
    pub(crate) fn str<'v>(&self, v: &'v Value) -> Result<&'v str, ScenarioError> {
        match v {
            Value::Str(s) => Ok(s),
            other => Err(self.expected("a string", other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Builds the canonical table from declared fields.
#[derive(Default)]
pub struct Writer {
    table: Table,
}

impl Writer {
    /// Writes `key` as `C`.
    pub(crate) fn put<C: Codec>(&mut self, key: &str, x: &C::T) {
        self.table.insert(key.to_string(), C::encode(x));
    }

    /// Writes `s` as the sub-table `key`.
    pub(crate) fn put_table<S: Schema>(&mut self, key: &str, s: &S) {
        let t = self.nested(s);
        self.table.insert(key.to_string(), t);
    }

    /// Writes `xs` as the array of tables `key`; nothing when empty.
    pub(crate) fn put_tables<S: Schema>(&mut self, key: &str, xs: &[S]) {
        if !xs.is_empty() {
            let items = xs.iter().map(|s| self.nested(s)).collect();
            self.table.insert(key.to_string(), Value::Array(items));
        }
    }

    fn nested<S: Schema>(&mut self, s: &S) -> Value {
        let outer = std::mem::take(&mut self.table);
        s.clone().visit(self);
        Value::Table(std::mem::replace(&mut self.table, outer))
    }
}

impl Visitor for Writer {
    fn field<F: Field>(&mut self, f: F, place: &mut F::T, rule: Rule<F::T>) {
        if !matches!(rule, Rule::Omit(d) if d() == *place) {
            f.write(place, self);
        }
    }

    fn section(&mut self, name: &'static str, body: impl FnOnce(&mut Self)) {
        let outer = std::mem::take(&mut self.table);
        body(self);
        let inner = std::mem::replace(&mut self.table, outer);
        if !inner.is_empty() {
            self.table.insert(name.to_string(), Value::Table(inner));
        }
    }
}

// ---------------------------------------------------------------------------
// Fields
// ---------------------------------------------------------------------------

/// A single key holding a `C` value.
pub struct Key<C> {
    name: [&'static str; 1],
    codec: PhantomData<C>,
}

/// Declares the single key `name` of type `C`.
pub const fn key<C: Codec>(name: &'static str) -> Key<C> {
    Key { name: [name], codec: PhantomData }
}

impl<C: Codec> Field for Key<C> {
    type T = C::T;
    fn keys(&self) -> &[&'static str] {
        &self.name
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<C::T>, ScenarioError> {
        r.get::<C>(self.name[0])
    }
    fn write(&self, x: &C::T, w: &mut Writer) {
        w.put::<C>(self.name[0], x);
    }
}

/// The sub-table `name`, read as `S`.
pub(crate) struct Sub<S>(&'static str, PhantomData<S>);

/// Declares the sub-table `name` of type `S`.
pub(crate) const fn table<S: Schema>(name: &'static str) -> Sub<S> {
    Sub(name, PhantomData)
}

impl<S: Schema + PartialEq> Field for Sub<S> {
    type T = S;
    fn keys(&self) -> &[&'static str] {
        std::slice::from_ref(&self.0)
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<S>, ScenarioError> {
        r.table(self.0)
    }
    fn write(&self, x: &S, w: &mut Writer) {
        w.put_table(self.0, x);
    }
}

/// The array of tables `name` (`[[name]]`), read as a list of `S`.
pub(crate) struct Entries<S>(&'static str, PhantomData<S>);

/// Declares the array of tables `name` with entries of type `S`.
pub(crate) const fn tables<S: Schema>(name: &'static str) -> Entries<S> {
    Entries(name, PhantomData)
}

impl<S: Schema + PartialEq> Field for Entries<S> {
    type T = Vec<S>;
    fn keys(&self) -> &[&'static str] {
        std::slice::from_ref(&self.0)
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<Vec<S>>, ScenarioError> {
        r.tables(self.0)
    }
    fn write(&self, xs: &Vec<S>, w: &mut Writer) {
        w.put_tables(self.0, xs);
    }
}

/// An optional field: [`Visitor::opt`].
struct Opt<F>(F);

impl<F: Field> Field for Opt<F> {
    type T = Option<F::T>;
    fn keys(&self) -> &[&'static str] {
        self.0.keys()
    }
    fn read(&self, r: &mut Reader<'_>) -> Result<Option<Option<F::T>>, ScenarioError> {
        self.0.read(r).map(Some)
    }
    fn write(&self, x: &Option<F::T>, w: &mut Writer) {
        if let Some(x) = x {
            self.0.write(x, w);
        }
    }
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

macro_rules! int_codec {
    ($($t:ty => $what:literal),* $(,)?) => {$(
        impl Codec for $t {
            type T = $t;
            fn decode(v: &Value, at: &At<'_>) -> Result<$t, ScenarioError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i).ok(),
                    _ => None,
                }
                .ok_or_else(|| at.expected($what, v))
            }
            fn encode(x: &$t) -> Value {
                Value::Int(*x as i64)
            }
        }
    )*};
}

int_codec!(
    u64 => "a non-negative integer",
    usize => "a non-negative integer",
    u32 => "an integer in 0..=4294967295",
    // Every u16 in a schema is a validator id.
    u16 => "a validator id in 0..=65535",
);

impl Codec for f64 {
    type T = f64;
    fn decode(v: &Value, at: &At<'_>) -> Result<f64, ScenarioError> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(at.expected("a number", other)),
        }
    }
    fn encode(x: &f64) -> Value {
        Value::Float(*x)
    }
}

impl Codec for bool {
    type T = bool;
    fn decode(v: &Value, at: &At<'_>) -> Result<bool, ScenarioError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(at.expected("a boolean", other)),
        }
    }
    fn encode(x: &bool) -> Value {
        Value::Bool(*x)
    }
}

impl Codec for String {
    type T = String;
    fn decode(v: &Value, at: &At<'_>) -> Result<String, ScenarioError> {
        at.str(v).map(str::to_string)
    }
    fn encode(x: &String) -> Value {
        Value::Str(x.clone())
    }
}

impl Codec for PathBuf {
    type T = PathBuf;
    fn decode(v: &Value, at: &At<'_>) -> Result<PathBuf, ScenarioError> {
        String::decode(v, at).map(PathBuf::from)
    }
    fn encode(x: &PathBuf) -> Value {
        Value::Str(x.display().to_string())
    }
}

/// A scalar-or-list sweep axis (`tps = 500` or `tps = [500, 1000]`):
/// never empty, written as a scalar when it holds one value.
pub(crate) struct Axis<C>(PhantomData<C>);

/// Like [`Axis`], but always written as a list.
pub(crate) struct Many<C>(PhantomData<C>);

/// A list (`nodes = [1, 2]`), possibly empty.
pub struct List<C>(PhantomData<C>);

fn decode_axis<C: Codec>(v: &Value, at: &At<'_>) -> Result<Vec<C::T>, ScenarioError> {
    match v {
        Value::Array(items) if items.is_empty() => {
            Err(at.expected("a value or a non-empty list", v))
        }
        Value::Array(items) => items.iter().map(|x| C::decode(x, at)).collect(),
        scalar => Ok(vec![C::decode(scalar, at)?]),
    }
}

fn encode_list<C: Codec>(xs: &[C::T]) -> Value {
    Value::Array(xs.iter().map(C::encode).collect())
}

impl<C: Codec> Codec for Axis<C> {
    type T = Vec<C::T>;
    fn decode(v: &Value, at: &At<'_>) -> Result<Vec<C::T>, ScenarioError> {
        decode_axis::<C>(v, at)
    }
    fn encode(xs: &Vec<C::T>) -> Value {
        match xs.as_slice() {
            [one] => C::encode(one),
            _ => encode_list::<C>(xs),
        }
    }
}

impl<C: Codec> Codec for Many<C> {
    type T = Vec<C::T>;
    fn decode(v: &Value, at: &At<'_>) -> Result<Vec<C::T>, ScenarioError> {
        decode_axis::<C>(v, at)
    }
    fn encode(xs: &Vec<C::T>) -> Value {
        encode_list::<C>(xs)
    }
}

impl<C: Codec> Codec for List<C> {
    type T = Vec<C::T>;
    fn decode(v: &Value, at: &At<'_>) -> Result<Vec<C::T>, ScenarioError> {
        match v {
            Value::Array(items) => items.iter().map(|x| C::decode(x, at)).collect(),
            other => Err(at.expected("a list", other)),
        }
    }
    fn encode(xs: &Vec<C::T>) -> Value {
        encode_list::<C>(xs)
    }
}
