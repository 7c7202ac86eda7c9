// Package textdata provides the text corpus for the Word Count workload.
// The paper concatenates the Project Gutenberg text of "Alice's Adventures
// in Wonderland" repeatedly; we embed a public-domain excerpt of the same
// book and cycle it, which preserves the skewed word-frequency distribution
// that drives the fields-grouped WordCount bolt.
package textdata

import "strings"

// alice is an excerpt of Lewis Carroll's "Alice's Adventures in Wonderland"
// (1865, public domain).
const alice = `Alice was beginning to get very tired of sitting by her sister on the
bank, and of having nothing to do: once or twice she had peeped into the
book her sister was reading, but it had no pictures or conversations in
it, and what is the use of a book, thought Alice, without pictures or
conversations?
So she was considering in her own mind, as well as she could, for the
hot day made her feel very sleepy and stupid, whether the pleasure of
making a daisy-chain would be worth the trouble of getting up and
picking the daisies, when suddenly a White Rabbit with pink eyes ran
close by her.
There was nothing so very remarkable in that, nor did Alice think it so
very much out of the way to hear the Rabbit say to itself, Oh dear! Oh
dear! I shall be late! but when the Rabbit actually took a watch out of
its waistcoat-pocket, and looked at it, and then hurried on, Alice
started to her feet, for it flashed across her mind that she had never
before seen a rabbit with either a waistcoat-pocket, or a watch to take
out of it, and burning with curiosity, she ran across the field after
it, and fortunately was just in time to see it pop down a large
rabbit-hole under the hedge.
In another moment down went Alice after it, never once considering how
in the world she was to get out again.
The rabbit-hole went straight on like a tunnel for some way, and then
dipped suddenly down, so suddenly that Alice had not a moment to think
about stopping herself before she found herself falling down a very
deep well.
Either the well was very deep, or she fell very slowly, for she had
plenty of time as she went down to look about her and to wonder what
was going to happen next. First, she tried to look down and make out
what she was coming to, but it was too dark to see anything; then she
looked at the sides of the well, and noticed that they were filled with
cupboards and book-shelves; here and there she saw maps and pictures
hung upon pegs. She took down a jar from one of the shelves as she
passed; it was labelled ORANGE MARMALADE, but to her great
disappointment it was empty: she did not like to drop the jar for fear
of killing somebody underneath, so managed to put it into one of the
cupboards as she fell past it.
Well! thought Alice to herself, after such a fall as this, I shall
think nothing of tumbling down stairs! How brave they will all think me
at home! Why, I would not say anything about it, even if I fell off the
top of the house! Which was very likely true.
Down, down, down. Would the fall never come to an end? I wonder how
many miles I have fallen by this time? she said aloud. I must be
getting somewhere near the centre of the earth. Let me see: that would
be four thousand miles down, I think, for, you see, Alice had learnt
several things of this sort in her lessons in the schoolroom, and
though this was not a very good opportunity for showing off her
knowledge, as there was no one to listen to her, still it was good
practice to say it over, yes, that is about the right distance, but
then I wonder what Latitude or Longitude I have got to?
Presently she began again. I wonder if I shall fall right through the
earth! How funny it will seem to come out among the people that walk
with their heads downward! The Antipathies, I think, she was rather
glad there was no one listening, this time, as it did not sound at all
the right word, but I shall have to ask them what the name of the
country is, you know. Please, Ma'am, is this New Zealand or Australia?
And she tried to curtsey as she spoke, fancy curtseying as you are
falling through the air! Do you think you could manage it? And what an
ignorant little girl she will think me for asking! No, it will never do
to ask: perhaps I shall see it written up somewhere.
Down, down, down. There was nothing else to do, so Alice soon began
talking again. Dinah will miss me very much to-night, I should think!
Dinah was the cat. I hope they will remember her saucer of milk at
tea-time. Dinah, my dear! I wish you were down here with me! There are
no mice in the air, I am afraid, but you might catch a bat, and that is
very like a mouse, you know. But do cats eat bats, I wonder? And here
Alice began to get rather sleepy, and went on saying to herself, in a
dreamy sort of way, Do cats eat bats? Do cats eat bats? and sometimes,
Do bats eat cats? for, you see, as she could not answer either
question, it did not much matter which way she put it.`

var lines = strings.Split(alice, "\n")

// NumLines reports how many lines the corpus has.
func NumLines() int { return len(lines) }

// Line returns the i-th line of the endlessly repeated corpus
// (i may be any non-negative value).
func Line(i int) string { return lines[i%len(lines)] }

// SplitWords tokenizes a line the way the SplitSentence bolt does: it
// lower-cases, strips punctuation, and drops empty tokens.
func SplitWords(line string) []string {
	fields := strings.FieldsFunc(line, func(r rune) bool {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '\'', r == '-':
			return false
		default:
			return true
		}
	})
	out := make([]string, 0, len(fields))
	for _, w := range fields {
		w = strings.Trim(strings.ToLower(w), "'-")
		if w != "" {
			out = append(out, w)
		}
	}
	return out
}
