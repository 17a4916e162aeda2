package power

import (
	"fmt"
	"time"

	"rad/internal/robot"
)

// NumProperties is the number of physical properties in each power-dataset
// entry; the paper's RTDE capture records 122 properties every 40 ms (§IV).
const NumProperties = 122

// propertyNames is the canonical ordering of the 122 properties. It mirrors
// the UR RTDE output recipe the paper used: per-joint actual/target
// kinematics, currents, moments, temperatures and voltages, TCP pose/speed/
// force vectors, and controller-level scalars.
var propertyNames = buildPropertyNames()

func buildPropertyNames() []string {
	names := make([]string, 0, NumProperties)
	perJoint := []string{
		"actual_q", "actual_qd", "actual_qdd", "actual_current", "joint_moment",
		"joint_temperature", "joint_voltage", "target_q", "target_qd", "target_current",
	}
	for _, base := range perJoint {
		for j := 0; j < robot.NumJoints; j++ {
			names = append(names, fmt.Sprintf("%s_%d", base, j))
		}
	}
	vec6 := []string{"actual_tcp_pose", "actual_tcp_speed", "actual_tcp_force",
		"target_tcp_pose", "target_tcp_speed"}
	for _, base := range vec6 {
		for k := 0; k < 6; k++ {
			names = append(names, fmt.Sprintf("%s_%d", base, k))
		}
	}
	singles := []string{
		"timestamp_s", "robot_voltage", "robot_current", "robot_momentum",
		"payload_mass", "payload_cog_x", "payload_cog_y", "payload_cog_z",
		"speed_scaling", "target_speed_fraction", "runtime_state", "safety_status",
		"robot_mode", "output_int_register_0",
	}
	names = append(names, singles...)
	for j := 0; j < robot.NumJoints; j++ {
		names = append(names, fmt.Sprintf("joint_mode_%d", j))
	}
	tri := []string{"tool_accelerometer", "elbow_position", "elbow_velocity"}
	for _, base := range tri {
		for _, ax := range []string{"x", "y", "z"} {
			names = append(names, base+"_"+ax)
		}
	}
	names = append(names, "tool_output_voltage", "tool_output_current", "tcp_force_scalar")
	return names
}

// PropertyNames returns the canonical names of the 122 properties, in the
// order their values appear in Sample.Values.
func PropertyNames() []string {
	out := make([]string, len(propertyNames))
	copy(out, propertyNames)
	return out
}

// propertyIndex maps a property name to its position in Sample.Values.
var propertyIndex = func() map[string]int {
	m := make(map[string]int, len(propertyNames))
	for i, n := range propertyNames {
		m[n] = i
	}
	return m
}()

// jointIndex holds the positions in Sample.Values of each per-joint
// property, joint by joint, resolved once so that assembling or reading a
// sample formats and looks up no name.
var jointIndex = struct {
	actualQ, actualQd, actualQdd, actualCurrent, moment, temperature,
	voltage, targetQ, targetQd, targetCurrent, mode [robot.NumJoints]int
}{
	jointIndexes("actual_q"), jointIndexes("actual_qd"), jointIndexes("actual_qdd"),
	jointIndexes("actual_current"), jointIndexes("joint_moment"), jointIndexes("joint_temperature"),
	jointIndexes("joint_voltage"), jointIndexes("target_q"), jointIndexes("target_qd"),
	jointIndexes("target_current"), jointIndexes("joint_mode"),
}

// jointIndexes returns the positions in Sample.Values of base_0 to base_5.
func jointIndexes(base string) (idx [robot.NumJoints]int) {
	for j := range idx {
		idx[j] = propertyIndex[fmt.Sprintf("%s_%d", base, j)]
	}
	return idx
}

// Sample is one power-dataset entry: a timestamp plus the 122 property
// values.
type Sample struct {
	Time   time.Time
	Values []float64
}

// JointCurrent returns the actual current of joint j (0-based). The paper's
// §VI figures plot "joint 1", the base joint, which is index 0 here.
func (s Sample) JointCurrent(j int) float64 {
	if j < 0 || j >= robot.NumJoints || jointIndex.actualCurrent[j] >= len(s.Values) {
		return 0
	}
	return s.Values[jointIndex.actualCurrent[j]]
}

// CurrentSeries extracts the joint-j current time series from samples.
func CurrentSeries(samples []Sample, joint int) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.JointCurrent(joint)
	}
	return out
}
